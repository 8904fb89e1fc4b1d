(* The open-loop load generator: one thread, an event loop over at most
   [nproc] keep-alive connections, frames pipelined in order (CCQ1v4).
   Requests go out at their scheduled instants whatever the replies are
   doing, and every latency runs from the scheduled instant, so a stall
   is charged to the requests it delays.

   Each request's life is cut into contiguous client intervals, all on
   one clock:

     sched -lag-> enc0 -encode-> enc1 -write-> w1 -wait-> r0 -read-> r1
           -decode-> d1 -check-> c1

   so the intervals sum to the latency [c1 - sched] exactly. In a
   closed-loop phase (the capacity measurement) a request is scheduled
   the moment it is sent. The
   server's echoed queue / frame-read / service split falls inside
   [wait]; what is left of [wait] is the network, kernel and
   head-of-line remainder. *)

module Serve = Ccomp_serve.Serve

let now = Clock.now

type record = {
  mutable sched : float;
  mutable enc0 : float;
  mutable enc1 : float;
  mutable w1 : float;
  mutable r0 : float;
  mutable r1 : float;
  mutable d1 : float;
  mutable c1 : float;
  mutable outcome : Inputs.outcome option;  (** [None] = never sent *)
  mutable timing : Serve.timing option;
}

type phase = {
  records : record array;
  wall_s : float;  (** first scheduled instant to last reply *)
  cpu_s : float;  (** this process's user + system time over the phase *)
}

type conn = {
  fd : Unix.file_descr;
  mutable alive : bool;
  pending : (int * string * int ref) Queue.t;  (** request, frame, bytes written *)
  inflight : int Queue.t;  (** requests written or writing, reply order *)
  mutable load : int;  (** payload bytes of the requests in flight *)
  mutable buf : Bytes.t;
  mutable len : int;
}

let conn_of_fd fd =
  Unix.set_nonblock fd;
  {
    fd;
    alive = true;
    pending = Queue.create ();
    inflight = Queue.create ();
    load = 0;
    buf = Bytes.create 65536;
    len = 0;
  }

let header = 10

(* Length of the first complete CCR1 frame in [c.buf], if there is one. *)
let complete_frame c =
  if c.len < header then None
  else
    let timing_len = Bytes.get_uint8 c.buf 5 in
    let payload_len = Int32.to_int (Bytes.get_int32_be c.buf 6) land 0xffffffff in
    let total = header + timing_len + payload_len in
    if c.len >= total then Some total
    else (
      if Bytes.length c.buf < total then begin
        let b = Bytes.create (max total (2 * Bytes.length c.buf)) in
        Bytes.blit c.buf 0 b 0 c.len;
        c.buf <- b
      end;
      None)

(* Seconds to wait for replies after the last send. *)
let drain_s = 30.

(* Run one phase. Open loop (the default): [offsets] are seconds after
   [start]; [reqs.(i)] goes out at [start +. offsets.(i)]. Closed loop
   ([closed = Some (depth, stop)]): requests go out in order whenever
   fewer than [depth] are unanswered, until the instant [stop]; the
   offsets are ignored. The wait for replies after the last send is
   bounded by [drain_s]; whatever is still unanswered then counts as a
   transport failure. [echo] gives each request a nonzero id, which
   asks the daemon to echo its timing record. *)
let run ?closed ~echo ~fds ~start ~offsets ~(reqs : Inputs.request array) () =
  let n = Array.length offsets in
  let records =
    Array.map
      (fun o ->
        {
          sched = start +. o;
          enc0 = 0.;
          enc1 = 0.;
          w1 = 0.;
          r0 = 0.;
          r1 = 0.;
          d1 = 0.;
          c1 = 0.;
          outcome = None;
          timing = None;
        })
      offsets
  in
  let conns = Array.of_list (List.map conn_of_fd fds) in
  let cpu0 = Unix.times () in
  let next = ref 0 in
  let outstanding = ref 0 in
  let cost i = 64 + Inputs.payload_bytes reqs.(i) in
  let fail_conn c =
    if c.alive then begin
      c.alive <- false;
      Queue.iter
        (fun i ->
          records.(i).outcome <- Some Inputs.Transport;
          decr outstanding)
        c.inflight;
      Queue.clear c.inflight;
      Queue.clear c.pending
    end
  in
  let flush c =
    let rec go () =
      match Queue.peek_opt c.pending with
      | None -> ()
      | Some (i, frame, off) -> (
        let len = String.length frame - !off in
        match Unix.write_substring c.fd frame !off len with
        | k ->
          off := !off + k;
          if !off = String.length frame then begin
            records.(i).w1 <- now ();
            ignore (Queue.pop c.pending);
            go ()
          end
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
        | exception Unix.Unix_error _ -> fail_conn c)
    in
    go ()
  in
  let deliver c total =
    let i = Queue.pop c.inflight in
    c.load <- c.load - cost i;
    let r = records.(i) in
    r.r1 <- now ();
    let frame = Bytes.sub_string c.buf 0 total in
    Bytes.blit c.buf total c.buf 0 (c.len - total);
    c.len <- c.len - total;
    let decoded = Serve.decode_response frame in
    r.d1 <- now ();
    (match decoded with
    | Ok (resp, timing) ->
      r.timing <- timing;
      r.outcome <- Some (Inputs.check reqs.(i) resp)
    | Error _ -> r.outcome <- Some Inputs.Transport);
    r.c1 <- now ();
    decr outstanding
  in
  let receive c =
    let rec go () =
      if Bytes.length c.buf - c.len < 16384 then begin
        let b = Bytes.create (2 * Bytes.length c.buf) in
        Bytes.blit c.buf 0 b 0 c.len;
        c.buf <- b
      end;
      match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
      | 0 -> fail_conn c
      | k ->
        let t = now () in
        (* the head-of-line request's reply starts arriving now unless
           earlier bytes of it are already buffered *)
        (match Queue.peek_opt c.inflight with
        | Some i when records.(i).r0 = 0. -> records.(i).r0 <- t
        | _ -> ());
        c.len <- c.len + k;
        let rec frames () =
          match complete_frame c with
          | Some total ->
            deliver c total;
            (match Queue.peek_opt c.inflight with
            | Some i when c.len > 0 && records.(i).r0 = 0. -> records.(i).r0 <- t
            | _ -> ());
            frames ()
          | None -> ()
        in
        frames ();
        go ()
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error _ -> fail_conn c
    in
    go ()
  in
  (* Replies come back in order per connection, so a request queued
     behind a long job waits for it: send each request on the live
     connection with the fewest payload bytes in flight. *)
  let pick () =
    let best = ref None in
    Array.iter
      (fun c ->
        if c.alive then
          match !best with
          | Some b when b.load <= c.load -> ()
          | _ -> best := Some c)
      conns;
    !best
  in
  let send i =
    let r = records.(i) in
    r.enc0 <- now ();
    match pick () with
    | None ->
      r.enc1 <- r.enc0;
      r.outcome <- Some Inputs.Transport
    | Some c ->
      let frame =
        Serve.encode_request
          ~request_id:(if echo then Int64.of_int (i + 1) else 0L) (Inputs.request_of reqs.(i).kind)
      in
      r.enc1 <- now ();
      incr outstanding;
      c.load <- c.load + cost i;
      Queue.push i c.inflight;
      Queue.push (i, frame, ref 0) c.pending;
      flush c
  in
  let due i =
    match closed with
    | None -> records.(i).sched <= now ()
    | Some (depth, _) ->
      !outstanding < depth
      && begin
        records.(i).sched <- now ();
        true
      end
  in
  let drain_deadline = ref infinity in
  let finished () = !next >= n && !outstanding = 0 in
  while (not (finished ())) && now () < !drain_deadline do
    (match closed with Some (_, stop) when now () >= stop -> next := n | _ -> ());
    while !next < n && due !next do
      send !next;
      incr next
    done;
    if !next >= n && !drain_deadline = infinity then drain_deadline := now () +. drain_s;
    let live = List.filter (fun c -> c.alive) (Array.to_list conns) in
    let rd = List.filter_map (fun c -> if Queue.is_empty c.inflight then None else Some c.fd) live in
    let wr = List.filter_map (fun c -> if Queue.is_empty c.pending then None else Some c.fd) live in
    let timeout =
      if !next < n && closed = None then Float.max 0. (Float.min 0.01 (records.(!next).sched -. now ()))
      else 0.01
    in
    if rd = [] && wr = [] then (if timeout > 0. then Unix.sleepf timeout)
    else
      match Unix.select rd wr [] timeout with
      | r, w, _ ->
        Array.iter
          (fun c ->
            if c.alive && List.mem c.fd w then flush c;
            if c.alive && List.mem c.fd r then receive c)
          conns
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  done;
  Array.iter fail_conn conns;
  let cpu1 = Unix.times () in
  let last =
    Array.fold_left (fun acc r -> if r.c1 > acc then r.c1 else acc) start records
  in
  {
    records;
    wall_s = Float.max 1e-6 (Float.max last (now ()) -. start);
    cpu_s =
      cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime +. (cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime);
  }

(* --- summaries ---------------------------------------------------------- *)

let ok p =
  Array.fold_left (fun a r -> if r.outcome = Some Inputs.Ok_reply then a + 1 else a) 0 p.records

(* Per-request intervals of answered requests, in milliseconds. *)
let intervals p f =
  Array.of_list
    (Array.fold_right
       (fun r acc -> if r.outcome = Some Inputs.Ok_reply then (f r *. 1e3) :: acc else acc)
       p.records [])

(* Latency of every answered request, from its scheduled send. *)
let latencies_ms p = intervals p (fun r -> r.c1 -. r.sched)

let server_ms p f =
  Array.of_list
    (Array.fold_right
       (fun r acc ->
         match (r.outcome, r.timing) with
         | Some Inputs.Ok_reply, Some t -> (float_of_int (f t) /. 1e3) :: acc
         | _ -> acc)
       p.records [])
