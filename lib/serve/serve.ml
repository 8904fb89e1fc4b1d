(* Compression daemon: one TCP listener, two protocols (binary jobs +
   HTTP observability), codecs shared verbatim with the offline CLI so
   served output is byte-identical.

   Concurrency model (overload-safe by construction):

     the loop (the domain that calls [run])
       one poll(2) set: accept, reassembly of each frame and HTTP head
       from non-blocking reads, the idle and i/o deadlines (one timer
       heap), non-blocking reply writes. Admission bounds the work in
       the daemon: past [workers * (queue_cap + 1)] admitted
       connections a newcomer is shed with a typed overload reply
       (CCR1 status 2 / HTTP 503), written non-blockingly, so accepts
       never stall behind slow consumers. Keep-alive connections
       (CCQ1v4) wait between frames in the same poll set, holding no
       worker and no admission unit.
     worker domains (one per shard)
       pop a reassembled request -> job dispatch with the request's
       deadline enforced before, during and after decode -> the
       encoded reply goes back to the loop through a completion queue
       and a wake pipe. A worker that crashes is logged, counted in
       serve.worker_restarts_total and respawned in place; the daemon
       never dies with it.

   SIGTERM/SIGINT switch the daemon into drain: stop accepting, close
   the idle connections, let workers finish the queued and running jobs
   within the drain budget, shed the rest with typed overload replies,
   then join and flush. The metrics registry and event ring are
   Domain-safe, so every handler publishes freely. *)

module Obs = Ccomp_obs.Obs
module Events = Ccomp_obs.Events
module Openmetrics = Ccomp_obs.Openmetrics
module Runtime = Ccomp_obs.Runtime
module Prng = Ccomp_util.Prng
module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Image = Ccomp_image.Image

type algo = Samc | Sadc

type isa = Mips | X86

type request =
  | Compress of { algo : algo; isa : isa; block_size : int; code : string }
  | Decompress of string
  | Ping
  | Crash_worker

type response =
  | Payload of string
  | Failed of string
  | Overloaded of string
  | Deadline_expired of string

exception Worker_crashed

let req_magic = "CCQ1"

let resp_magic = "CCR1"

(* Request header v2 (25 bytes): magic(4) op(1) algo(1) isa(1)
   block(2,BE) deadline_ms(4,BE) request_id(8,BE) payload_len(4,BE).
   The request id is client-chosen, opaque to the daemon, and echoed in
   the reply's timing record so a client can correlate its own send
   schedule with the server's per-stage clock. Zero means "no tracing
   requested" and suppresses the echo. *)
let req_header_len = 25

(* Response header v2 (10 bytes): magic(4) status(1) timing_len(1)
   payload_len(4,BE), then [timing_len] bytes of timing record, then
   the payload. timing_len is 0 (no record) or [timing_record_len]. *)
let resp_header_len = 10

let timing_record_len = 20

type frame_meta = { deadline_ms : int; request_id : int64 }

type timing = {
  t_request_id : int64;
  t_queue_us : int;  (** accepted -> popped by a worker *)
  t_service_us : int;  (** the codec job itself *)
  t_server_us : int;  (** queue + read + work: all server-side time *)
}

(* --- service metrics ---------------------------------------------------- *)

let m_connections = Obs.Counter.make "serve.connections"

let m_jobs_compress = Obs.Counter.make "serve.jobs.compress"

let m_jobs_decompress = Obs.Counter.make "serve.jobs.decompress"

let m_jobs_failed = Obs.Counter.make "serve.jobs.failed"

let m_http = Obs.Counter.make "serve.http.requests"

let m_bytes_in = Obs.Counter.make "serve.bytes_in"

let m_bytes_out = Obs.Counter.make "serve.bytes_out"

let m_job_us = Obs.Histogram.make "serve.job_us"

let m_shed = Obs.Counter.make "serve.shed_total"

let m_deadline_expired = Obs.Counter.make "serve.deadline_expired_total"

let m_worker_restarts = Obs.Counter.make "serve.worker_restarts_total"

let m_io_timeouts = Obs.Counter.make "serve.io_timeouts"

let m_queue_wait_us = Obs.Histogram.make "serve.queue_wait_us"

let m_inflight = Obs.Gauge.make "serve.inflight"

(* keep-alive bookkeeping: frames vs connections is the reuse ratio *)
let m_frames = Obs.Counter.make "serve.frames"

let m_recycles = Obs.Counter.make "serve.conn_recycles"

let m_keepalive_idle = Obs.Counter.make "serve.keepalive_idle_closes"

let inflight = Atomic.make 0

(* --- framing ------------------------------------------------------------ *)

let read_be32 s pos = Int32.to_int (String.get_int32_be s pos) land 0xFFFF_FFFF

let max_payload = 1 lsl 28 (* 256 MB: refuse absurd frames instead of allocating them *)

type protocol_error =
  | Frame_too_large of { limit : int; got : int }
  | Truncated of string
  | Malformed of string
  | Timed_out of string

let protocol_error_to_string = function
  | Frame_too_large { limit; got } ->
    Printf.sprintf "frame too large: %d-byte payload exceeds the %d-byte limit" got limit
  | Truncated what -> "truncated " ^ what
  | Malformed what -> "malformed request: " ^ what
  | Timed_out what -> "i/o timeout: " ^ what

let algo_tag = function (Samc : algo) -> 0 | Sadc -> 1

let algo_of_tag = function 0 -> Some (Samc : algo) | 1 -> Some Sadc | _ -> None

let isa_tag = function Mips -> 0 | X86 -> 1

let isa_of_tag = function 0 -> Some Mips | 1 -> Some X86 | _ -> None

(* Encoders build each frame in one buffer of its final length: the
   header fields go in with the big-endian setters, the payload with one
   blit. Integer fields keep their low 16/32/64 bits, as on the wire. *)
let encode_request ?(deadline_ms = 0) ?(request_id = 0L) req =
  let frame ~op ~algo ~isa ~block payload =
    let n = String.length payload in
    let b = Bytes.create (req_header_len + n) in
    Bytes.blit_string req_magic 0 b 0 4;
    Bytes.set_uint8 b 4 op;
    Bytes.set_uint8 b 5 algo;
    Bytes.set_uint8 b 6 isa;
    Bytes.set_uint16_be b 7 (block land 0xffff);
    Bytes.set_int32_be b 9 (Int32.of_int deadline_ms);
    Bytes.set_int64_be b 13 request_id;
    Bytes.set_int32_be b 21 (Int32.of_int n);
    Bytes.blit_string payload 0 b req_header_len n;
    Bytes.unsafe_to_string b
  in
  match req with
  | Compress { algo; isa; block_size; code } ->
    frame ~op:1 ~algo:(algo_tag algo) ~isa:(isa_tag isa) ~block:block_size code
  | Decompress data -> frame ~op:2 ~algo:0 ~isa:0 ~block:0 data
  | Ping -> frame ~op:3 ~algo:0 ~isa:0 ~block:0 ""
  | Crash_worker -> frame ~op:4 ~algo:0 ~isa:0 ~block:0 ""

let decode_request s =
  if String.length s < req_header_len then Error (Truncated "request header")
  else if String.sub s 0 4 <> req_magic then Error (Malformed "bad request magic")
  else begin
    let meta = { deadline_ms = read_be32 s 9; request_id = String.get_int64_be s 13 } in
    let payload_len = read_be32 s 21 in
    if payload_len > max_payload then
      Error (Frame_too_large { limit = max_payload; got = payload_len })
    else if String.length s < req_header_len + payload_len then
      Error (Truncated "request payload")
    else if String.length s > req_header_len + payload_len then
      Error (Malformed "trailing bytes after payload")
    else
      let payload = String.sub s req_header_len payload_len in
      match Char.code s.[4] with
      | 1 -> (
        match (algo_of_tag (Char.code s.[5]), isa_of_tag (Char.code s.[6])) with
        | Some algo, Some isa ->
          let block_size = String.get_uint16_be s 7 in
          if block_size = 0 then Error (Malformed "block size must be positive")
          else Ok (Compress { algo; isa; block_size; code = payload }, meta)
        | None, _ -> Error (Malformed "unknown algorithm tag")
        | _, None -> Error (Malformed "unknown ISA tag"))
      | 2 -> Ok (Decompress payload, meta)
      | 3 -> Ok (Ping, meta)
      | 4 -> Ok (Crash_worker, meta)
      | op -> Error (Malformed (Printf.sprintf "unknown opcode %d" op))
  end

(* Stage durations ride the wire as 32-bit microsecond counts; cap
   rather than wrap so a pathological 71-minute stage still reads as
   "huge", not as a small number. *)
let cap_u32 v = if v < 0 then 0 else if v > 0xFFFF_FFFF then 0xFFFF_FFFF else v

let set_timing b pos t =
  Bytes.set_int64_be b pos t.t_request_id;
  Bytes.set_int32_be b (pos + 8) (Int32.of_int (cap_u32 t.t_queue_us));
  Bytes.set_int32_be b (pos + 12) (Int32.of_int (cap_u32 t.t_service_us));
  Bytes.set_int32_be b (pos + 16) (Int32.of_int (cap_u32 t.t_server_us))

let decode_timing s pos =
  {
    t_request_id = String.get_int64_be s pos;
    t_queue_us = read_be32 s (pos + 8);
    t_service_us = read_be32 s (pos + 12);
    t_server_us = read_be32 s (pos + 16);
  }

let encode_response ?timing resp =
  let frame status payload =
    let tlen = if timing = None then 0 else timing_record_len in
    let n = String.length payload in
    let b = Bytes.create (resp_header_len + tlen + n) in
    Bytes.blit_string resp_magic 0 b 0 4;
    Bytes.set_uint8 b 4 status;
    Bytes.set_uint8 b 5 tlen;
    Bytes.set_int32_be b 6 (Int32.of_int n);
    (match timing with Some t -> set_timing b resp_header_len t | None -> ());
    Bytes.blit_string payload 0 b (resp_header_len + tlen) n;
    Bytes.unsafe_to_string b
  in
  match resp with
  | Payload data -> frame 0 data
  | Failed msg -> frame 1 msg
  | Overloaded msg -> frame 2 msg
  | Deadline_expired msg -> frame 3 msg

let decode_response s =
  if String.length s < resp_header_len then Error "truncated response header"
  else if String.sub s 0 4 <> resp_magic then Error "bad response magic"
  else begin
    let timing_len = Char.code s.[5] in
    let len = read_be32 s 6 in
    if timing_len <> 0 && timing_len <> timing_record_len then
      Error (Printf.sprintf "unknown timing record length %d" timing_len)
    else if String.length s <> resp_header_len + timing_len + len then
      Error "response length mismatch"
    else
      let timing =
        if timing_len = 0 then None else Some (decode_timing s resp_header_len)
      in
      let payload = String.sub s (resp_header_len + timing_len) len in
      match Char.code s.[4] with
      | 0 -> Ok (Payload payload, timing)
      | 1 -> Ok (Failed payload, timing)
      | 2 -> Ok (Overloaded payload, timing)
      | 3 -> Ok (Deadline_expired payload, timing)
      | st -> Error (Printf.sprintf "unknown status %d" st)
  end

(* --- deadlines ---------------------------------------------------------- *)

(* Deadlines are absolute [Obs.now_us] instants; [None] never expires.
   The CCQ1 deadline_ms field is relative to the moment the daemon
   finished reading the frame — a propagation-friendly budget that
   needs no clock agreement between client and server. *)

let expired = function None -> false | Some d -> Obs.now_us () > d

let deadline_reply ~at =
  Obs.Counter.incr m_deadline_expired;
  Events.warn ~fields:[ ("at", at) ] "serve.deadline_expired";
  Deadline_expired (Printf.sprintf "deadline expired %s" at)

(* --- job dispatch ------------------------------------------------------- *)

(* Identical construction to `ccomp compress` with default flags, so a
   served job is byte-for-byte the offline output. *)
let compress_job ~jobs ~algo ~isa ~block_size code =
  match (algo, isa) with
  | (Samc : algo), Mips ->
    let cfg = Samc.mips_config ~block_size ~context_bits:2 ~quantize:false ~prune_below:0 () in
    Image.write (Image.of_samc ~isa:Image.Mips (Samc.compress ~jobs cfg code))
  | Samc, X86 ->
    let cfg = Samc.byte_config ~block_size ~context_bits:2 ~quantize:false ~prune_below:0 () in
    Image.write (Image.of_samc ~isa:Image.X86 (Samc.compress ~jobs cfg code))
  | Sadc, Mips ->
    let cfg = Sadc.default_config ~block_size () in
    Image.write (Image.of_sadc_mips (Sadc.Mips.compress_image ~jobs cfg code))
  | Sadc, X86 ->
    let cfg = Sadc.default_config ~block_size () in
    Image.write (Image.of_sadc_x86 (Sadc.X86.compress_image ~jobs cfg code))

let handle_request ?deadline_us ~jobs req =
  let job kind f =
    let (resp : response), dt = Obs.timed ~cat:"serve" ("serve.job." ^ kind) f in
    if Obs.metrics_enabled () then Obs.Histogram.observe m_job_us (dt *. 1e6);
    (match resp with
    | Failed msg ->
      Obs.Counter.incr m_jobs_failed;
      Events.warn ~fields:[ ("kind", kind); ("error", msg) ] "serve.job.failed"
    | Overloaded _ | Deadline_expired _ -> () (* counted at creation *)
    | Payload p ->
      Events.debug
        ~fields:[ ("kind", kind); ("bytes", string_of_int (String.length p)) ]
        "serve.job.done");
    resp
  in
  match req with
  | Ping -> Payload "pong"
  | Crash_worker ->
    (* deliberately escapes the per-connection handler: the supervised
       worker loop books a restart — this is the chaos harness's way of
       killing a worker domain from the outside *)
    raise Worker_crashed
  | Compress { algo; isa; block_size; code } ->
    Obs.Counter.incr m_jobs_compress;
    job "compress" (fun () ->
        if expired deadline_us then deadline_reply ~at:"before compress"
        else
          match compress_job ~jobs ~algo ~isa ~block_size code with
          | image ->
            if expired deadline_us then deadline_reply ~at:"during compress" else Payload image
          | exception e -> Failed (Printexc.to_string e))
  | Decompress data ->
    Obs.Counter.incr m_jobs_decompress;
    job "decompress" (fun () ->
        if expired deadline_us then deadline_reply ~at:"before decode"
        else
          match Image.read data with
          | Error e -> Failed ("cannot read image: " ^ e)
          | Ok image -> (
            if expired deadline_us then deadline_reply ~at:"before decompress"
            else
              match Image.decompress ~jobs image with
              | code ->
                if expired deadline_us then deadline_reply ~at:"during decompress"
                else Payload code
              | exception e -> Failed (Printexc.to_string e)))

(* --- HTTP --------------------------------------------------------------- *)

let query_str target key =
  match String.index_opt target '?' with
  | None -> None
  | Some i ->
    let q = String.sub target (i + 1) (String.length target - i - 1) in
    List.fold_left
      (fun acc kv ->
        match String.split_on_char '=' kv with
        | [ k; v ] when k = key -> Some v
        | _ -> acc)
      None (String.split_on_char '&' q)

let query_int target key ~default =
  match Option.bind (query_str target key) int_of_string_opt with
  | Some n -> n
  | None -> default

let path_of_target target =
  match String.index_opt target '?' with
  | None -> target
  | Some i -> String.sub target 0 i

(* serve.uptime_seconds counts from daemon start ([run] resets it); the
   module-load fallback keeps the gauge meaningful for in-process tests
   that call [http_response] without a daemon. *)
let started_at_us = ref (Obs.now_us ())

let m_uptime = Obs.Gauge.make "serve.uptime_seconds"

let refresh_uptime () = Obs.Gauge.set m_uptime ((Obs.now_us () -. !started_at_us) /. 1e6)

let version = "1.0.0"

let () = Openmetrics.set_info "serve" [ ("version", version) ]

let http_response target =
  match path_of_target target with
  | "/metrics" ->
    refresh_uptime ();
    Some (200, "application/openmetrics-text; version=1.0.0; charset=utf-8", Openmetrics.render ())
  | "/healthz" -> Some (200, "text/plain; charset=utf-8", "ok\n")
  | "/events" -> (
    let n = query_int target "n" ~default:50 in
    match query_str target "level" with
    | None -> Some (200, "application/x-ndjson", Events.tail_json n)
    | Some lvl -> (
      match Events.level_of_string lvl with
      | Some min_level -> Some (200, "application/x-ndjson", Events.tail_json ~min_level n)
      | None ->
        Some
          ( 400,
            "text/plain; charset=utf-8",
            Printf.sprintf "unknown level %S (want debug|info|warn|error)\n" lvl )))
  | "/snapshot" -> Some (200, "application/json", Obs.snapshot_to_json (Obs.snapshot ()))
  | "/slow" ->
    let n = query_int target "n" ~default:50 in
    Some (200, "application/x-ndjson", Slow.tail_json n)
  | _ -> None

(* --- poll(2) ------------------------------------------------------------- *)

(* [poll_fds fds events revents n timeout_ms] waits on the first [n]
   descriptors; event sets are [ev_in]/[ev_out] bits, and [revents]
   also sets bit 4 on an error or hang-up. Returns the number of ready
   descriptors, 0 on timeout or EINTR. *)
external poll_fds : Unix.file_descr array -> int array -> int array -> int -> int -> int
  = "ccomp_serve_poll"

let ev_in = 1

let ev_out = 2

(* poll's timeout for an absolute [Obs.now_us] deadline: -1 waits
   forever; rounding up keeps a wake from landing before the deadline. *)
let poll_ms deadline_us =
  if deadline_us = infinity then -1
  else
    let ms = Float.ceil ((deadline_us -. Obs.now_us ()) /. 1e3) in
    if ms <= 0.0 then 0 else int_of_float (Float.min ms 1e9)

(* --- daemon configuration ----------------------------------------------- *)

type config = {
  host : string;
  port : int;
  jobs : int;
  workers : int;
  queue_cap : int;
  max_requests_per_conn : int;
  idle_timeout_s : float;
  io_timeout_s : float;
  drain_s : float;
  allow_crash_op : bool;
  slow_threshold_ms : float;
  slow_capacity : int;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 7070;
    jobs = 1;
    workers = 2;
    queue_cap = 64;
    max_requests_per_conn = 0;
    idle_timeout_s = 10.0;
    io_timeout_s = 30.0;
    drain_s = 5.0;
    allow_crash_op = false;
    slow_threshold_ms = 100.0;
    slow_capacity = 64;
  }

(* --- jobs: what a worker runs ------------------------------------------- *)

(* A request reassembled from non-blocking reads — a CCQ1 frame (or the
   protocol error that ended it) or an HTTP head — with its stage clock
   so far: [t0] first byte of the frame, [t_read] frame complete. The
   worker adds pop and job-done; the reply's write adds the end. Each
   boundary also probes the GC counters and stamps mutator liveness for
   the major-pause estimator. *)
type input = Frame of (request * frame_meta, protocol_error) result | Http of string

type job = {
  input : input;
  t0 : float;
  t_read : float;
  gc0 : Gc.stat option;
  gc_read : Gc.stat option;
  queued_us : float;  (** admission wait before the frame's first byte *)
  mutable depth : int;  (** shard queue length ahead of it when pushed *)
}

type reply = {
  bytes : string;  (** encoded reply; [""] closes with no reply *)
  keep : bool;  (** a CCQ1 frame in sync: serve the next one *)
  written : unit -> unit;  (** books the stages once the write ends *)
}

let no_reply = { bytes = ""; keep = false; written = ignore }

let max_http_head = 8192

(* Where the HTTP head in the first [n] characters (read through [get])
   ends: just past its blank line. *)
let head_end get n =
  let rec find i =
    if i + 4 > n then None
    else if get i = '\r' && get (i + 1) = '\n' && get (i + 2) = '\r' && get (i + 3) = '\n' then
      Some (i + 4)
    else find (i + 1)
  in
  find 0

let http_reply head =
  Obs.Counter.incr m_http;
  Obs.Counter.add m_bytes_in (String.length head);
  let request_line =
    match String.index_opt head '\r' with Some i -> String.sub head 0 i | None -> head
  in
  let status, ctype, body =
    if String.length head >= max_http_head && head_end (String.get head) (String.length head) = None
    then
      (* the peer never finished its head within the limit; answer with
         413 instead of misparsing a truncated request line as a target *)
      (413, "text/plain; charset=utf-8", "request head too large\n")
    else
      match String.split_on_char ' ' request_line with
      | meth :: target :: _ when meth = "GET" || meth = "HEAD" -> (
        match http_response target with
        | Some r -> r
        | None -> (404, "text/plain; charset=utf-8", "not found\n"))
      | _ -> (400, "text/plain; charset=utf-8", "bad request\n")
  in
  let reason =
    match status with
    | 200 -> "OK"
    | 400 -> "Bad Request"
    | 413 -> "Content Too Large"
    | 503 -> "Service Unavailable"
    | _ -> "Not Found"
  in
  Events.debug ~fields:[ ("request", request_line); ("status", string_of_int status) ] "serve.http";
  let bytes =
    Printf.sprintf
      "HTTP/1.0 %d %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
      status reason ctype (String.length body) body
  in
  { bytes; keep = false; written = ignore }

(* Run one job: the worker's whole share of a request. The reply is
   encoded here, timing record included, so [server_us] (queue + read
   + work) excludes the write stage — the record rides inside the very
   reply being written, and the client computes network time as its
   corrected latency minus [server_us], slightly pessimistic by the
   write cost. The request's [deadline_ms] counts from [t_read]. Raises
   {!Worker_crashed} on an allowed crash op. *)
let run_job cfg j =
  match j.input with
  | Http head -> http_reply head
  | Frame result ->
    let t_pop = Obs.now_us () in
    Runtime.tick ();
    let queue_us = j.queued_us +. (t_pop -. j.t_read) in
    let id = match result with Ok (_, m) -> m.request_id | Error _ -> 0L in
    let resp =
      match result with
      | Ok (Crash_worker, _) when not cfg.allow_crash_op ->
        Events.warn "serve.crash_op_refused";
        Failed "crash op not enabled (start the daemon with --unsafe-crash-op)"
      | Ok (req, { deadline_ms; _ }) ->
        let deadline_us =
          if deadline_ms > 0 then Some (j.t_read +. (float_of_int deadline_ms *. 1e3)) else None
        in
        handle_request ?deadline_us ~jobs:cfg.jobs req
      | Error pe ->
        (match pe with
        | Timed_out _ ->
          Obs.Counter.incr m_io_timeouts;
          Events.warn ~fields:[ ("error", protocol_error_to_string pe) ] "serve.io_timeout"
        | _ -> Events.warn ~fields:[ ("error", protocol_error_to_string pe) ] "serve.protocol_error");
        Failed (protocol_error_to_string pe)
    in
    let t_work = Obs.now_us () in
    let gc_work = Runtime.probe () in
    Runtime.tick ();
    let read_us = j.t_read -. j.t0 and work_us = t_work -. t_pop in
    let timing =
      if id = 0L then None
      else
        Some
          {
            t_request_id = id;
            t_queue_us = int_of_float queue_us;
            t_service_us = int_of_float work_us;
            t_server_us = int_of_float (queue_us +. read_us +. work_us);
          }
    in
    let kind =
      match result with
      | Ok (Compress _, _) -> "compress"
      | Ok (Decompress _, _) -> "decompress"
      | Ok (Ping, _) -> "ping"
      | Ok (Crash_worker, _) -> "crash"
      | Error _ -> "protocol_error"
    in
    let outcome =
      match resp with
      | Payload _ -> "ok"
      | Failed _ -> "failed"
      | Overloaded _ -> "overloaded"
      | Deadline_expired _ -> "deadline_expired"
    in
    (* after the write (or its failure): the stage histograms, the tail
       sample with what the GC did during each stage, the runtime
       counters *)
    let written () =
      let t_end = Obs.now_us () in
      let gc_end = Runtime.probe () in
      let write_us = t_end -. t_work in
      let total_us = queue_us +. read_us +. work_us +. write_us in
      Obs.Counter.incr m_frames;
      Latency.observe Latency.Queue queue_us;
      Latency.observe Latency.Read read_us;
      Latency.observe Latency.Work work_us;
      Latency.observe Latency.Write write_us;
      Latency.observe_total total_us;
      if Obs.metrics_enabled () then begin
        ignore
          (Slow.maybe_sample
             {
               Slow.sr_ts_us = t_end;
               sr_id = id;
               sr_kind = kind;
               sr_outcome = outcome;
               sr_total_us = total_us;
               sr_queue_us = queue_us;
               sr_read_us = read_us;
               sr_work_us = work_us;
               sr_write_us = write_us;
               sr_queue_depth = j.depth;
               sr_gc_read = Runtime.stage_delta j.gc0 j.gc_read;
               sr_gc_work = Runtime.stage_delta j.gc_read gc_work;
               sr_gc_write = Runtime.stage_delta gc_work gc_end;
             });
        ignore (Runtime.sample ())
      end;
      if id <> 0L then
        Events.debug
          ~fields:
            [
              ("id", Int64.to_string id);
              ("queue_us", Printf.sprintf "%.0f" queue_us);
              ("read_us", Printf.sprintf "%.0f" read_us);
              ("work_us", Printf.sprintf "%.0f" work_us);
              ("write_us", Printf.sprintf "%.0f" write_us);
            ]
          "serve.request"
    in
    { bytes = encode_response ?timing resp; keep = Result.is_ok result; written }

(* --- connections: one state machine ------------------------------------- *)

(* A connection between frames is [Idle] (idle budget running); once a
   byte of the next frame arrives it is [Reading] (one i/o budget for
   the whole frame); a complete frame makes it [Running] (the job is
   out, no budget of ours: the request carries its own deadline), and
   its reply makes it [Writing] (a fresh i/o budget — a large result
   legitimately takes longer to write than the request took to read).
   One frame per connection is in flight at a time, so replies leave in
   request order; pipelined frames wait in [buf]. The daemon's loop and
   [handle_connection] drive the same functions below. *)
type phase = Idle | Reading | Running | Writing of reply | Closed

type conn = {
  fd : Unix.file_descr;
  mutable buf : Bytes.t;
  mutable len : int;  (** buffered input bytes *)
  mutable frames : int;  (** CCQ1 frames answered so far *)
  mutable phase : phase;
  mutable out_pos : int;
  mutable deadline : float;  (** absolute [Obs.now_us]; [infinity] = none *)
  mutable t0 : float;
  mutable gc0 : Gc.stat option;
  mutable timer_at : float;  (** daemon: this conn's entry in the timer heap *)
  mutable held : bool;  (** daemon: holds an admission unit *)
}

(* What happens next to a connection: wait on its peer, hand out a job, or close. *)
type step = Wait | Dispatch of job | Finished

let after s = Obs.now_us () +. (s *. 1e6)

let make_conn cfg fd =
  {
    fd;
    buf = Bytes.empty;
    len = 0;
    frames = 0;
    phase = Idle;
    out_pos = 0;
    deadline = after cfg.idle_timeout_s;
    t0 = 0.0;
    gc0 = None;
    timer_at = infinity;
    held = false;
  }

let is_ccq1 c = c.len >= 4 && Bytes.sub_string c.buf 0 4 = req_magic

let frame_len c = Int32.to_int (Bytes.get_int32_be c.buf 21) land 0xFFFF_FFFF

(* Which part of a CCQ1 frame is still arriving. *)
let frame_part c = if c.len < req_header_len then "request header" else "request payload"

(* Read what is available, into a buffer grown to the frame being
   assembled. *)
let read_some c =
  let want = if c.len >= req_header_len && is_ccq1 c then req_header_len + frame_len c else c.len + 4096 in
  if Bytes.length c.buf < want then begin
    let b = Bytes.create (max want (2 * Bytes.length c.buf)) in
    Bytes.blit c.buf 0 b 0 c.len;
    c.buf <- b
  end;
  match Unix.read c.fd c.buf c.len (Bytes.length c.buf - c.len) with
  | 0 -> `Eof
  | k ->
    c.len <- c.len + k;
    `Data
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Again
  | exception Unix.Unix_error _ -> `Eof

(* Take the first [n] buffered bytes. *)
let consume c n =
  let s = Bytes.sub_string c.buf 0 n in
  c.len <- c.len - n;
  if c.len = 0 then c.buf <- Bytes.empty else Bytes.blit c.buf n c.buf 0 c.len;
  s

let dispatch c input =
  let j =
    {
      input;
      t0 = c.t0;
      t_read = Obs.now_us ();
      gc0 = c.gc0;
      gc_read = Runtime.probe ();
      queued_us = 0.0;
      depth = 0;
    }
  in
  Runtime.tick ();
  c.phase <- Running;
  c.deadline <- infinity;
  Dispatch j

let idle_close c =
  if c.frames = 0 then begin
    (* idle budget: the peer connected but never finished a preamble *)
    Obs.Counter.incr m_io_timeouts;
    Events.warn ~fields:[ ("what", "connection preamble") ] "serve.idle_timeout"
  end
  else begin
    (* inter-frame gap: a quiet goodbye, not an error *)
    Obs.Counter.incr m_keepalive_idle;
    Events.debug ~fields:[ ("frames", string_of_int c.frames) ] "serve.keepalive.idle_close"
  end;
  Finished

(* Advance an [Idle]/[Reading] connection as far as its bytes allow. A
   clean EOF at a frame boundary is the peer saying goodbye (old
   one-shot clients shut down their send side after one frame, so they
   close exactly here, no version sniff needed); EOF inside a CCQ1 frame
   is answered as truncation; HTTP stays one-shot. *)
let rec advance cfg c =
  if c.phase = Idle && c.len > 0 then begin
    c.phase <- Reading;
    c.t0 <- Obs.now_us ();
    c.gc0 <- Runtime.probe ();
    c.deadline <- after cfg.io_timeout_s;
    Runtime.tick ()
  end;
  if c.len < 4 then more cfg c
  else if is_ccq1 c then
    if c.len < req_header_len then more cfg c
    else if frame_len c > max_payload then
      dispatch c (Frame (Error (Frame_too_large { limit = max_payload; got = frame_len c })))
    else if req_header_len + frame_len c <= c.len then begin
      let n = req_header_len + frame_len c in
      Obs.Counter.add m_bytes_in n;
      dispatch c (Frame (decode_request (consume c n)))
    end
    else more cfg c
  else if c.frames > 0 then begin
    Events.warn ~fields:[ ("frames", string_of_int c.frames) ] "serve.protocol_error";
    Finished
  end
  else if c.len >= max_http_head || head_end (Bytes.get c.buf) c.len <> None then
    dispatch c (Http (consume c c.len))
  else more cfg c

(* The buffered bytes are not a whole frame: read more, or settle what
   the peer's EOF left behind. *)
and more cfg c =
  match read_some c with
  | `Data -> advance cfg c
  | `Again -> Wait
  | `Eof when c.len = 0 -> Finished
  | `Eof when c.len < 4 ->
    if c.frames > 0 then
      Events.debug ~fields:[ ("frames", string_of_int c.frames) ] "serve.keepalive.partial_preamble";
    Finished
  | `Eof when is_ccq1 c ->
    let got, want =
      if c.len < req_header_len then (c.len - 4, req_header_len - 4)
      else (c.len - req_header_len, frame_len c)
    in
    dispatch c
      (Frame
         (Error
            (Truncated (Printf.sprintf "%s (peer closed after %d of %d bytes)" (frame_part c) got want))))
  | `Eof -> dispatch c (Http (consume c c.len))

(* Push the pending reply out; once it is written, either close (error,
   HTTP, recycle bound) or go back to [Idle] and serve whatever the peer
   already pipelined. *)
let rec flush_out cfg c r =
  let n = String.length r.bytes in
  match Unix.write_substring c.fd r.bytes c.out_pos (n - c.out_pos) with
  | k when c.out_pos + k < n ->
    c.out_pos <- c.out_pos + k;
    flush_out cfg c r
  | _ ->
    Obs.Counter.add m_bytes_out n;
    r.written ();
    if not r.keep then Finished
    else begin
      c.frames <- c.frames + 1;
      if cfg.max_requests_per_conn > 0 && c.frames >= cfg.max_requests_per_conn then begin
        Obs.Counter.incr m_recycles;
        Events.debug ~fields:[ ("frames", string_of_int c.frames) ] "serve.conn_recycle";
        Finished
      end
      else begin
        c.phase <- Idle;
        c.deadline <- after cfg.idle_timeout_s;
        advance cfg c
      end
    end
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush_out cfg c r
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> Wait
  | exception Unix.Unix_error _ ->
    r.written ();
    Finished

(* A job's reply arrived for this connection: start writing it. *)
let deliver cfg c r =
  if r.bytes = "" then Finished
  else begin
    c.phase <- Writing r;
    c.out_pos <- 0;
    c.deadline <- after cfg.io_timeout_s;
    flush_out cfg c r
  end

(* The descriptor is ready (or worth a try). *)
let ready cfg c =
  match c.phase with
  | Idle | Reading -> advance cfg c
  | Writing r -> flush_out cfg c r
  | Running | Closed -> Wait

(* The connection's deadline passed. *)
let expire c =
  match c.phase with
  | Idle -> idle_close c
  | Reading when c.len < 4 -> idle_close c
  | Reading when is_ccq1 c -> dispatch c (Frame (Error (Timed_out (frame_part c))))
  | Reading ->
    (* a slowloris HTTP head: give up without guessing at a target *)
    Obs.Counter.incr m_io_timeouts;
    Events.warn ~fields:[ ("what", "http head") ] "serve.io_timeout";
    Finished
  | Writing r ->
    Obs.Counter.incr m_io_timeouts;
    Events.warn ~fields:[ ("what", "response write") ] "serve.io_timeout";
    r.written ();
    Finished
  | Running | Closed -> Wait

(* The same state machine driven on one descriptor, the job run inline:
   what the socketpair tests and the benchmark's in-process replay
   exercise. *)
let handle_connection ?(idle_timeout_s = infinity) ?(io_timeout_s = infinity)
    ?(allow_crash_op = false) ?(queue_us = 0.0) ?(admit_depth = 0) ?(max_requests = 0) ~jobs fd =
  Obs.Counter.incr m_connections;
  let cfg =
    { default_config with idle_timeout_s; io_timeout_s; allow_crash_op; jobs; max_requests_per_conn = max_requests }
  in
  let c = make_conn cfg fd in
  let fds = [| fd |] and evs = [| 0 |] and revs = [| 0 |] in
  let rec drive = function
    | Finished -> ()
    | Dispatch j ->
      (* the admission wait and depth the caller measured belong to the first frame *)
      if c.frames = 0 then begin
        j.depth <- admit_depth;
        drive (deliver cfg c (run_job cfg { j with queued_us = queue_us }))
      end
      else drive (deliver cfg c (run_job cfg j))
    | Wait ->
      evs.(0) <- (match c.phase with Writing _ -> ev_out | _ -> ev_in);
      if poll_fds fds evs revs 1 (poll_ms c.deadline) > 0 then drive (ready cfg c)
      else if Obs.now_us () >= c.deadline then drive (expire c)
      else drive Wait
  in
  Unix.set_nonblock fd;
  Fun.protect
    ~finally:(fun () -> try Unix.clear_nonblock fd with Unix.Unix_error _ -> ())
    (fun () -> drive (ready cfg c))

(* --- admission: bounded per-shard queues -------------------------------- *)

module Shard = struct
  type t = {
    id : int;
    mutex : Mutex.t;
    cond : Condition.t;
    items : (conn * job) Queue.t;
    cap : int;
    mutable closed : bool; (* pops stop; leftovers are shed *)
    depth : Obs.Gauge.t;
  }

  let make id cap =
    {
      id;
      mutex = Mutex.create ();
      cond = Condition.create ();
      items = Queue.create ();
      cap = max 1 cap;
      closed = false;
      depth = Obs.Gauge.make (Printf.sprintf "serve.queue.depth.%d" id);
    }

  let locked t f =
    Mutex.lock t.mutex;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

  let set_depth t = Obs.Gauge.set t.depth (float_of_int (Queue.length t.items))

  let try_push t c (j : job) =
    locked t (fun () ->
        Queue.length t.items < t.cap
        && begin
             (* depth BEFORE this push: how much work was already ahead of
                the request when admission accepted it — the number a tail
                sample wants for "was the queue the problem?" *)
             j.depth <- Queue.length t.items;
             Queue.add (c, j) t.items;
             set_depth t;
             Condition.signal t.cond;
             true
           end)

  let pop t =
    locked t (fun () ->
        while (not t.closed) && Queue.is_empty t.items do
          Condition.wait t.cond t.mutex
        done;
        if t.closed then None
        else begin
          let it = Queue.take t.items in
          set_depth t;
          Some it
        end)

  (* Stop the workers and hand back what is still queued. *)
  let close t =
    locked t (fun () ->
        t.closed <- true;
        Condition.broadcast t.cond;
        let out = List.of_seq (Queue.to_seq t.items) in
        Queue.clear t.items;
        set_depth t;
        out)

end

(* --- shedding ----------------------------------------------------------- *)

let http_503 =
  let body = "overloaded\n" in
  Printf.sprintf
    "HTTP/1.0 503 Service Unavailable\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s"
    (String.length body) body

(* Best-effort typed refusal, strictly non-blocking so the loop can
   never be stalled by the very overload it is shedding: peek at
   whatever the client has sent to pick the protocol (no bytes yet, or
   a CCQ1 prefix, means the binary reply), fire one write, close. *)
let shed_connection ?(queue_depth = 0) ~reason conn =
  Obs.Counter.incr m_shed;
  Events.warn ~fields:[ ("reason", reason) ] "serve.shed";
  if Obs.metrics_enabled () then
    (* a shed is always tail evidence, however fast the refusal: the
       record carries the depth that forced it and zeroed stages *)
    ignore
      (Slow.maybe_sample
         {
           Slow.sr_ts_us = Obs.now_us ();
           sr_id = 0L;
           sr_kind = "shed";
           sr_outcome = "shed";
           sr_total_us = 0.0;
           sr_queue_us = 0.0;
           sr_read_us = 0.0;
           sr_work_us = 0.0;
           sr_write_us = 0.0;
           sr_queue_depth = queue_depth;
           sr_gc_read = Runtime.delta_zero;
           sr_gc_work = Runtime.delta_zero;
           sr_gc_write = Runtime.delta_zero;
         });
  (try
     Unix.set_nonblock conn;
     let looks_http =
       let buf = Bytes.create 4 in
       match Unix.recv conn buf 0 4 [ Unix.MSG_PEEK ] with
       | 0 -> false
       | n ->
         let p = Bytes.sub_string buf 0 n in
         p <> String.sub req_magic 0 n
       | exception Unix.Unix_error _ -> false
     in
     let frame = if looks_http then http_503 else encode_response (Overloaded reason) in
     (* drain whatever request bytes already arrived: closing with
        unread input makes the kernel RST the connection, which would
        destroy the typed reply before the peer reads it *)
     let junk = Bytes.create 4096 in
     let rec drain budget =
       if budget > 0 then
         match Unix.read conn junk 0 (Bytes.length junk) with
         | 0 -> ()
         | n -> drain (budget - n)
         | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
         | exception Unix.Unix_error (Unix.EINTR, _, _) -> drain budget
     in
     drain 65536;
     ignore (Unix.write_substring conn frame 0 (String.length frame));
     (try Unix.shutdown conn Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
     drain 65536
   with Unix.Unix_error _ -> ());
  try Unix.close conn with Unix.Unix_error _ -> ()

(* --- daemon ------------------------------------------------------------- *)

let set_inflight delta =
  let v = Atomic.fetch_and_add inflight delta + delta in
  Obs.Gauge.set m_inflight (float_of_int v)

(* One worker: pop a job, run it, hand the reply to the loop. A worker
   whose loop dies is logged, counted and respawned in place — the
   domain (and the daemon) survive; on the crash op the connection is
   handed back to be closed without a reply. Any other failure closes
   just that connection. A closed shard (shutdown) ends the domain. *)
let rec supervised_worker cfg shard ~complete =
  let rec next () =
    match Shard.pop shard with
    | None -> ()
    | Some (c, j) ->
      if Obs.metrics_enabled () then
        Obs.Histogram.observe m_queue_wait_us (Obs.now_us () -. j.t_read);
      set_inflight 1;
      let r =
        match run_job cfg j with
        | r -> r
        | exception Worker_crashed ->
          set_inflight (-1);
          complete c no_reply;
          raise Worker_crashed
        | exception e ->
          Events.error ~fields:[ ("error", Printexc.to_string e) ] "serve.connection_error";
          no_reply
      in
      set_inflight (-1);
      complete c r;
      next ()
  in
  match next () with
  | () -> ()
  | exception e ->
    Obs.Counter.incr m_worker_restarts;
    Events.error
      ~fields:[ ("shard", string_of_int shard.Shard.id); ("error", Printexc.to_string e) ]
      "serve.worker.restart";
    supervised_worker cfg shard ~complete

let stop_signals = [ Sys.sigterm; Sys.sigint ]

let install_stop_handlers on_stop =
  let set sg =
    try Some (sg, Sys.signal sg (Sys.Signal_handle (fun _ -> on_stop ())))
    with Invalid_argument _ | Sys_error _ -> None
  in
  List.filter_map set stop_signals

let restore_handlers saved =
  List.iter
    (fun (sg, old) -> try Sys.set_signal sg old with Invalid_argument _ | Sys_error _ -> ())
    saved

let run ?(on_ready = fun _ -> ()) cfg =
  let workers = max 1 cfg.workers in
  (* A daemon serving many small requests allocates far faster than it
     retains (codec scratch dies young): the stock GC settings promote
     enough of that churn to drive major cycles — and their pauses —
     straight into the latency tail. Trade heap headroom for pause
     time. The space overhead applies immediately; the nursery size is
     only a request on OCaml 5.1 (minor heaps are sized at runtime
     startup), which is why the CLI re-execs `ccomp serve` with a tuned
     OCAMLRUNPARAM — library embedders get whatever their runtime
     honours. *)
  Gc.set
    { (Gc.get ()) with Gc.minor_heap_size = 4 * 1024 * 1024; space_overhead = 300 };
  (* a peer closing mid-write must surface as EPIPE, not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ());
  let close_quiet fd = try Unix.close fd with Unix.Unix_error _ -> () in
  let listener = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt listener Unix.SO_REUSEADDR true;
  Unix.bind listener (Unix.ADDR_INET (Unix.inet_addr_of_string cfg.host, cfg.port));
  Unix.listen listener 128;
  Unix.set_nonblock listener;
  let bound_port =
    match Unix.getsockname listener with Unix.ADDR_INET (_, p) -> p | _ -> cfg.port
  in
  started_at_us := Obs.now_us ();
  refresh_uptime ();
  Slow.configure ~capacity:cfg.slow_capacity ~threshold_us:(cfg.slow_threshold_ms *. 1e3) ();
  Runtime.install_alarm ();
  let facts =
    [
      ("workers", string_of_int workers);
      ("jobs", string_of_int cfg.jobs);
      ("queue_cap", string_of_int cfg.queue_cap);
      ("max_requests_per_conn", string_of_int cfg.max_requests_per_conn);
      ("host", cfg.host);
      ("port", string_of_int bound_port);
    ]
  in
  Openmetrics.set_info "serve" (("version", version) :: facts);
  Events.info ~fields:facts "serve.start";
  (* Workers hand replies back through [done_q]; the wake pipe gets a
     byte only when the loop may be asleep ([wake_pending] unset). *)
  let wake_r, wake_w = Unix.pipe ~cloexec:true () in
  Unix.set_nonblock wake_r;
  Unix.set_nonblock wake_w;
  let wake () = try ignore (Unix.write_substring wake_w "x" 0 1) with Unix.Unix_error _ -> () in
  let wake_pending = Atomic.make false in
  let done_m = Mutex.create () and done_q = Queue.create () in
  let complete shard c r =
    Mutex.lock done_m;
    Queue.add (shard, c, r) done_q;
    Mutex.unlock done_m;
    if not (Atomic.exchange wake_pending true) then wake ()
  in
  let stop = Atomic.make false in
  let saved =
    install_stop_handlers (fun () ->
        Atomic.set stop true;
        wake ())
  in
  let shards = Array.init workers (fun i -> Shard.make i cfg.queue_cap) in
  (* Workers inherit the spawning domain's signal mask: spawned with the
     stop signals blocked, they leave those signals to the loop, whose
     poll the signal interrupts. *)
  let mask = Unix.sigprocmask Unix.SIG_BLOCK stop_signals in
  let domains =
    Fun.protect
      ~finally:(fun () -> ignore (Unix.sigprocmask Unix.SIG_SETMASK mask))
      (fun () ->
        Array.map
          (fun sh -> Domain.spawn (fun () -> supervised_worker cfg sh ~complete:(complete sh.Shard.id)))
          shards)
  in
  (* Admission: a connection holds one of [units] from accept (or from
     the first byte of a new frame on an idle keep-alive connection)
     until its reply is written, so queued plus running work never
     exceeds what the queues and workers can hold; beyond it, shed. *)
  let units = workers * (max 1 cfg.queue_cap + 1) and held = ref 0 in
  let take c =
    c.held <- !held < units;
    if c.held then incr held;
    c.held
  in
  let conns = Hashtbl.create 64 in
  let timers = Ccomp_util.Heap.create ~cmp:(fun (a, _) (b, _) -> Float.compare a b) in
  let draining = ref false and drain_t0 = ref 0.0 and drain_deadline = ref infinity in
  (* [busy.(i)]: jobs pushed to shard [i] whose replies have not come
     back. A frame goes to the least busy shard (ties rotate), so it
     never queues behind one worker's job while another worker idles;
     a full shard overflows to the next. *)
  let busy = Array.make workers 0 and rr = ref 0 in
  let release c =
    if c.held then decr held;
    c.held <- false
  in
  (* Retire a connection: closed quietly, or shed with a typed reply. *)
  let retire ?shed c =
    release c;
    c.phase <- Closed;
    c.buf <- Bytes.empty;
    Hashtbl.remove conns c.fd;
    match shed with
    | None -> close_quiet c.fd
    | Some reason -> shed_connection ~queue_depth:(Array.fold_left ( + ) 0 busy) ~reason c.fd
  in
  let push c j =
    let start = ref !rr in
    for k = 1 to workers - 1 do
      let i = (!rr + k) mod workers in
      if busy.(i) < busy.(!start) then start := i
    done;
    rr := (!rr + 1) mod workers;
    let rec try_shard k =
      k < workers
      &&
      let i = (!start + k) mod workers in
      Shard.try_push shards.(i) c j && (busy.(i) <- busy.(i) + 1; true) || try_shard (k + 1)
    in
    if !draining then retire ~shed:"draining" c
    else if not (try_shard 0) then retire ~shed:"job queue full" c
  in
  (* Act on a step; a connection waiting on its peer keeps its deadline
     in the timer heap (one live entry each, re-pushed when it fires
     early) and, once idle between frames, gives its unit back. *)
  let settle c = function
    | Finished -> retire c
    | Dispatch j -> push c j
    | Wait when c.phase = Idle && !draining -> retire c
    | Wait ->
      if c.phase = Idle && c.frames > 0 then release c;
      if c.deadline < c.timer_at then begin
        Ccomp_util.Heap.push timers (c.deadline, c);
        c.timer_at <- c.deadline
      end
  in
  (* An idle keep-alive connection takes a unit before reading the next
     frame, or is shed. *)
  let ready_conn c =
    if c.phase = Idle && (not c.held) && not (take c) then retire ~shed:"job queue full" c
    else settle c (ready cfg c)
  in
  let rec accept_some k =
    if k > 0 then
      match Unix.accept ~cloexec:true listener with
      | fd, _ ->
        (* keep-alive replies must not wait out a delayed ACK before the
           next frame's response can leave the host *)
        (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
        Unix.set_nonblock fd;
        let c = make_conn cfg fd in
        Hashtbl.replace conns fd c;
        if take c then begin
          Obs.Counter.incr m_connections;
          ready_conn c
        end
        else retire ~shed:"job queue full" c;
        accept_some (k - 1)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
      | exception Unix.Unix_error (e, _, _) ->
        Events.warn ~fields:[ ("error", Unix.error_message e) ] "serve.accept_error"
  in
  let take_done () =
    Atomic.set wake_pending false;
    Mutex.lock done_m;
    let batch = List.of_seq (Queue.to_seq done_q) in
    Queue.clear done_q;
    Mutex.unlock done_m;
    List.iter
      (fun (i, c, r) ->
        busy.(i) <- busy.(i) - 1;
        if c.phase <> Closed then settle c (deliver cfg c r))
      batch
  in
  let rec fire_timers now =
    match Ccomp_util.Heap.peek timers with
    | at, c when at <= now ->
      ignore (Ccomp_util.Heap.pop timers);
      if c.phase <> Closed && at = c.timer_at then begin
        c.timer_at <- infinity;
        settle c (if c.deadline <= now then expire c else Wait)
      end;
      fire_timers now
    | _ -> ()
    | exception Not_found -> ()
  in
  (* Drain: stop accepting, close idle connections (between frames is a
     clean close point), shed the ones mid-frame with typed replies, and
     let the queued and running jobs finish within the budget. *)
  let begin_drain () =
    draining := true;
    drain_t0 := Obs.now_us ();
    drain_deadline := !drain_t0 +. (cfg.drain_s *. 1e6);
    Events.info ~fields:[ ("budget_s", Printf.sprintf "%g" cfg.drain_s) ] "serve.drain.begin";
    close_quiet listener;
    Hashtbl.fold (fun _ c acc -> c :: acc) conns []
    |> List.iter (fun c ->
           match c.phase with
           | Idle -> retire c
           | Reading -> retire ~shed:"draining" c
           | Running | Writing _ | Closed -> ())
  in
  (* The poll set, rebuilt every turn: the wake pipe, the listener, and
     every connection waiting on its peer. *)
  let fds = ref [||] and evs = ref [||] and revs = ref [||] in
  let rec loop () =
    if Atomic.get stop && not !draining then begin_drain ();
    if not (!draining && (Hashtbl.length conns = 0 || Obs.now_us () >= !drain_deadline)) then begin
      let need = Hashtbl.length conns + 2 in
      if Array.length !fds < need then begin
        fds := Array.make (2 * need) wake_r;
        evs := Array.make (2 * need) 0;
        revs := Array.make (2 * need) 0
      end;
      let n = ref 0 in
      let add fd ev =
        !fds.(!n) <- fd;
        !evs.(!n) <- ev;
        incr n
      in
      add wake_r ev_in;
      if not !draining then add listener ev_in;
      Hashtbl.iter
        (fun fd c ->
          match c.phase with
          | Idle | Reading -> add fd ev_in
          | Writing _ -> add fd ev_out
          | Running | Closed -> ())
        conns;
      let next_timer =
        match Ccomp_util.Heap.peek timers with at, _ -> at | exception Not_found -> infinity
      in
      if poll_fds !fds !evs !revs !n (poll_ms (Float.min next_timer !drain_deadline)) > 0 then
        for i = 0 to !n - 1 do
          let fd = !fds.(i) in
          if !revs.(i) = 0 then ()
          else if fd = wake_r then (
            try ignore (Unix.read wake_r (Bytes.create 64) 0 64) with Unix.Unix_error _ -> ())
          else if fd = listener then accept_some 64
          else Option.iter ready_conn (Hashtbl.find_opt conns fd)
        done;
      take_done ();
      fire_timers (Obs.now_us ());
      loop ()
    end
  in
  on_ready bound_port;
  Fun.protect
    ~finally:(fun () ->
      restore_handlers saved;
      if not !draining then close_quiet listener;
      close_quiet wake_r;
      close_quiet wake_w)
  @@ fun () ->
  loop ();
  (* Budget spent (or nothing left): shed what is still queued, cut the
     connections whose jobs still run, join the workers. *)
  let leftovers = Array.to_list shards |> List.concat_map Shard.close in
  List.iter (fun (c, _) -> if c.phase <> Closed then retire ~shed:"draining" c) leftovers;
  let cut = Hashtbl.fold (fun _ c acc -> c :: acc) conns [] in
  List.iter (fun c -> retire c) cut;
  if cut <> [] then
    Events.warn ~fields:[ ("connections", string_of_int (List.length cut)) ] "serve.drain.interrupt";
  Array.iter Domain.join domains;
  Events.info
    ~fields:
      [
        ("shed", string_of_int (List.length leftovers));
        ("interrupted", string_of_int (List.length cut));
        ("elapsed_s", Printf.sprintf "%.3f" ((Obs.now_us () -. !drain_t0) /. 1e6));
      ]
    "serve.drain.end";
  Events.info "serve.stop"

(* --- clients ------------------------------------------------------------- *)

(* Client reads and writes carry an optional absolute deadline, enforced
   with SO_RCVTIMEO/SO_SNDTIMEO re-armed to the remaining budget before
   each syscall. EINTR (a signal mid-syscall) restarts the transfer;
   EAGAIN/EWOULDBLOCK means the timeout fired. *)

let arm ~send fd deadline_us =
  match deadline_us with
  | None -> true
  | Some d ->
    let remaining = (d -. Obs.now_us ()) /. 1e6 in
    if remaining <= 0.0 then false
    else begin
      (try
         Unix.setsockopt_float fd
           (if send then Unix.SO_SNDTIMEO else Unix.SO_RCVTIMEO)
           (max remaining 0.001)
       with Unix.Unix_error _ | Invalid_argument _ -> ());
      true
    end

let read_exact ?deadline_us ~what fd n =
  let buf = Bytes.create n in
  let rec go pos =
    if pos >= n then Ok (Bytes.unsafe_to_string buf)
    else if not (arm ~send:false fd deadline_us) then Error (Timed_out what)
    else
      match Unix.read fd buf pos (n - pos) with
      | 0 -> Error (Truncated (Printf.sprintf "%s (peer closed after %d of %d bytes)" what pos n))
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error (Timed_out what)
      | exception Unix.Unix_error (Unix.ECONNRESET, _, _) ->
        Error (Truncated (Printf.sprintf "%s (connection reset)" what))
  in
  go 0

let write_all ?deadline_us ?(what = "write") fd s =
  let n = String.length s in
  let rec go pos =
    if pos >= n then Ok ()
    else if not (arm ~send:true fd deadline_us) then Error (Timed_out what)
    else
      match Unix.write_substring fd s pos (n - pos) with
      | k -> go (pos + k)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
        Error (Timed_out what)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
        Error (Truncated (Printf.sprintf "%s (peer closed)" what))
  in
  go 0

let describe_timeout ~host ~port timeout_s what =
  Printf.sprintf "%s:%d: timed out%s during %s (daemon dead or overloaded?)" host port
    (match timeout_s with Some t -> Printf.sprintf " after %gs" t | None -> "")
    what

(* Resolve and connect, trying EVERY getaddrinfo candidate — the
   resolver may return IPv6 first while the daemon listens on IPv4 —
   and reporting the LAST error when none connects. Returns the
   connected fd and the connect cost in microseconds (resolution
   included: that is the price a reconnecting client actually pays). *)
let connect_fd ?timeout_s ~host ~port () =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ | Sys_error _ -> ());
  let t0 = Obs.now_us () in
  match Unix.getaddrinfo host (string_of_int port) [ Unix.AI_SOCKTYPE Unix.SOCK_STREAM ] with
  | [] -> Error (Printf.sprintf "cannot resolve %s" host)
  | candidates ->
    let connect_one ai =
      let fd = Unix.socket ai.Unix.ai_family ai.Unix.ai_socktype ai.Unix.ai_protocol in
      (* request-response over a persistent connection is exactly the
         write-read alternation Nagle penalises: without TCP_NODELAY
         every frame after the first can stall behind a delayed ACK *)
      (try Unix.setsockopt fd Unix.TCP_NODELAY true with Unix.Unix_error _ -> ());
      match
        match timeout_s with
        | None -> Unix.connect fd ai.Unix.ai_addr
        | Some t ->
          (* non-blocking connect + bounded wait so a dead host cannot
             hold the client in connect(2) past the timeout *)
          Unix.set_nonblock fd;
          (match Unix.connect fd ai.Unix.ai_addr with
          | () -> ()
          | exception Unix.Unix_error ((Unix.EINPROGRESS | Unix.EWOULDBLOCK), _, _) ->
            let deadline = Obs.now_us () +. (t *. 1e6) in
            (* EINTR (or a spurious wake) retries with the REMAINING
               budget — a signal mid-wait must not misreport as
               ETIMEDOUT, and repeated signals must not extend it *)
            let fds = [| fd |] and evs = [| ev_out |] and revs = [| 0 |] in
            let rec wait () =
              if Obs.now_us () >= deadline then
                raise (Unix.Unix_error (Unix.ETIMEDOUT, "connect", ""))
              else if poll_fds fds evs revs 1 (poll_ms deadline) = 0 then wait ()
              else
                match Unix.getsockopt_error fd with
                | None -> ()
                | Some e -> raise (Unix.Unix_error (e, "connect", ""))
            in
            wait ());
          Unix.clear_nonblock fd;
          (try
             Unix.setsockopt_float fd Unix.SO_RCVTIMEO t;
             Unix.setsockopt_float fd Unix.SO_SNDTIMEO t
           with Unix.Unix_error _ -> ())
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, fn, _) ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        Error (e, fn)
    in
    let rec try_all last = function
      | [] -> (
        let e, fn = last in
        match e with
        | Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK ->
          Error (describe_timeout ~host ~port timeout_s fn)
        | _ -> Error (Printf.sprintf "%s:%d: %s" host port (Unix.error_message e)))
      | ai :: rest -> (
        match connect_one ai with
        | Ok fd -> Ok (fd, Obs.now_us () -. t0)
        | Error e -> try_all e rest)
    in
    try_all (Unix.ECONNREFUSED, "connect") candidates

let with_connection ?timeout_s ~host ~port f =
  match connect_fd ?timeout_s ~host ~port () with
  | Error msg -> Error msg
  | Ok (fd, _connect_us) -> (
    match
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () -> f fd)
    with
    | v -> v
    | exception Unix.Unix_error ((Unix.ETIMEDOUT | Unix.EAGAIN | Unix.EWOULDBLOCK), fn, _) ->
      Error (describe_timeout ~host ~port timeout_s fn)
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s:%d: %s" host port (Unix.error_message e)))

let read_until_eof fd =
  let b = Buffer.create 4096 in
  let chunk = Bytes.create 8192 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> Buffer.contents b
    | n ->
      Buffer.add_subbytes b chunk 0 n;
      go ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

(* --- persistent client connections (CCQ1v4) ------------------------------ *)

module Conn = struct
  type t = {
    fd : Unix.file_descr;
    timeout_s : float option;
    connect_us : float;
    mutable served : int;
    mutable alive : bool;
  }

  type error =
    | Stale of string
        (** the server closed the connection between frames (idle
            timeout or [--max-requests-per-conn] recycle): open a fresh
            connection and resend — nothing was half-done *)
    | Transport of string  (** a real failure; blind resend may not be safe *)

  let error_message = function Stale m | Transport m -> m

  let connect ?timeout_s ~host ~port () =
    match connect_fd ?timeout_s ~host ~port () with
    | Error msg -> Error msg
    | Ok (fd, connect_us) -> Ok { fd; timeout_s; connect_us; served = 0; alive = true }

  let connect_us t = t.connect_us
  let served t = t.served
  let is_alive t = t.alive

  let close t =
    if t.alive then begin
      t.alive <- false;
      try Unix.close t.fd with Unix.Unix_error _ -> ()
    end

  let deadline t = Option.map (fun s -> Obs.now_us () +. (s *. 1e6)) t.timeout_s

  (* Replies are read by frame, not to EOF — the connection stays open
     for the next request. EOF before the FIRST header byte on a reused
     connection is the recycle race: the server closed between our
     frames, and the request was never read — [Stale], safe to resend
     on a fresh connection. EOF anywhere later is mid-reply truncation. *)
  let read_reply t =
    let deadline_us = deadline t in
    let first =
      let buf = Bytes.create 1 in
      let rec go () =
        if not (arm ~send:false t.fd deadline_us) then Error (Timed_out "response header")
        else
          match Unix.read t.fd buf 0 1 with
          | 0 -> Ok None
          | _ -> Ok (Some (Bytes.get buf 0))
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
          | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
            Error (Timed_out "response header")
          | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> Ok None
      in
      go ()
    in
    match first with
    | Error pe -> Error (Transport (protocol_error_to_string pe))
    | Ok None ->
      if t.served > 0 then Error (Stale "server closed between frames")
      else Error (Transport "peer closed before any reply byte")
    | Ok (Some c) -> (
      match read_exact ?deadline_us ~what:"response header" t.fd (resp_header_len - 1) with
      | Error pe -> Error (Transport (protocol_error_to_string pe))
      | Ok rest ->
        let header = String.make 1 c ^ rest in
        if String.sub header 0 4 <> resp_magic then Error (Transport "bad response magic")
        else begin
          let timing_len = Char.code header.[5] in
          let len = read_be32 header 6 in
          match read_exact ?deadline_us ~what:"response body" t.fd (timing_len + len) with
          | Error pe -> Error (Transport (protocol_error_to_string pe))
          | Ok body -> (
            match decode_response (header ^ body) with
            | Ok v -> Ok v
            | Error msg -> Error (Transport msg))
        end)

  let submit_timed ?(deadline_ms = 0) ?(request_id = 0L) t req =
    if not t.alive then Error (Transport "connection closed")
    else begin
      let frame = encode_request ~deadline_ms ~request_id req in
      let reused = t.served > 0 in
      match write_all ?deadline_us:(deadline t) ~what:"request write" t.fd frame with
      | Error (Truncated msg) when reused ->
        t.alive <- false;
        Error (Stale msg)
      | Error pe ->
        t.alive <- false;
        Error (Transport (protocol_error_to_string pe))
      | Ok () -> (
        match read_reply t with
        | Ok v ->
          t.served <- t.served + 1;
          Ok v
        | Error e ->
          t.alive <- false;
          Error e)
    end

  let submit ?deadline_ms t req = Result.map fst (submit_timed ?deadline_ms t req)
end

let submit_timed ?timeout_s ?(deadline_ms = 0) ?(request_id = 0L) ~host ~port req =
  match Conn.connect ?timeout_s ~host ~port () with
  | Error msg -> Error msg
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Conn.close c)
      (fun () ->
        match Conn.submit_timed ~deadline_ms ~request_id c req with
        | Ok v -> Ok v
        | Error e -> Error (Conn.error_message e))

let submit ?timeout_s ?deadline_ms ~host ~port req =
  Result.map fst (submit_timed ?timeout_s ?deadline_ms ~host ~port req)

(* The pre-v4 one-shot wire shape: write one frame, shut down the send
   side, read the reply to EOF. Kept as the compatibility probe — the
   gates assert a v4 daemon answers this client byte-for-byte. *)
let submit_timed_legacy ?timeout_s ?(deadline_ms = 0) ?(request_id = 0L) ~host ~port req =
  with_connection ?timeout_s ~host ~port (fun fd ->
      let frame = encode_request ~deadline_ms ~request_id req in
      match write_all ~what:"request write" fd frame with
      | Error pe -> Error (protocol_error_to_string pe)
      | Ok () ->
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        decode_response (read_until_eof fd))

let submit_legacy ?timeout_s ?deadline_ms ~host ~port req =
  Result.map fst (submit_timed_legacy ?timeout_s ?deadline_ms ~host ~port req)

(* Jittered exponential backoff: attempt [k] sleeps in
   [0.5, 1.5) * base * 2^k — seeded, so a retry schedule replays. *)
let backoff_sleep g ~base attempt =
  let cap = base *. (2.0 ** float_of_int attempt) in
  Unix.sleepf (cap *. (0.5 +. Prng.float g))

let request ?(timeout_s = 30.0) ?(deadline_ms = 0) ?(retries = 0) ?(backoff_s = 0.05) ?(seed = 1)
    ~host ~port req =
  let g = Prng.create (Int64.of_int seed) in
  let rec attempt k =
    let retryable, result =
      match submit ~timeout_s ~deadline_ms ~host ~port req with
      | Ok (Payload p) -> (false, Ok p)
      | Ok (Failed msg) -> (false, Error msg)
      | Ok (Overloaded msg) -> (true, Error ("overloaded: " ^ msg))
      | Ok (Deadline_expired msg) -> (false, Error ("deadline expired: " ^ msg))
      | Error msg -> (true, Error msg)
    in
    if (not retryable) || k >= retries then result
    else begin
      backoff_sleep g ~base:backoff_s k;
      attempt (k + 1)
    end
  in
  attempt 0

let http_get ?timeout_s ~host ~port target =
  with_connection ?timeout_s ~host ~port (fun fd ->
      let q = Printf.sprintf "GET %s HTTP/1.0\r\nHost: %s\r\n\r\n" target host in
      match write_all ~what:"request write" fd q with
      | Error pe -> Error (protocol_error_to_string pe)
      | Ok () -> (
        let raw = read_until_eof fd in
        match String.index_opt raw ' ' with
        | None -> Error "malformed HTTP response"
        | Some i -> (
          let rest = String.sub raw (i + 1) (String.length raw - i - 1) in
          let status =
            match String.split_on_char ' ' rest with
            | code :: _ -> int_of_string_opt code
            | [] -> None
          in
          match status with
          | None -> Error "malformed HTTP status"
          | Some status ->
            let n = String.length raw in
            let start = Option.value (head_end (String.get raw) n) ~default:n in
            let body = String.sub raw start (n - start) in
            Ok (status, body))))
