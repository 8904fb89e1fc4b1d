(* The traced run: per-layer numbers, measured by timing calls into each
   layer's public functions, plus the tracing overhead against an
   untraced phase of the same run and the conservation check. *)

module Serve = Ccomp_serve.Serve
module Obs = Ccomp_obs.Obs
open Workload

(* Clock slop allowed when the daemon's echoed stages are fitted inside
   the client's own interval: the echo is truncated to whole
   microseconds, the two processes read different clocks for their
   durations, and the stamps are taken a few instructions away from the
   syscalls they bracket. *)
let slop_ms = 0.1

let ms_of_us us = float_of_int us /. 1e3

(* --- client and echoed server layers ------------------------------------- *)

(* Request spans: the client intervals (contiguous, so they sum to the
   latency) and, inside [wait], the daemon's echoed stages. *)
let request_spans st (p : Client.phase) =
  Array.iteri
    (fun i (r : Client.record) ->
      if r.Client.outcome = Some Inputs.Ok_reply then begin
        let req = i + 1 in
        let root = Span.add st ~parent:0 ~req "request" r.Client.sched r.Client.c1 in
        let leaf name a b = ignore (Span.add st ~parent:root ~req name a b) in
        leaf "client.lag" r.Client.sched r.Client.enc0;
        leaf "client.encode" r.Client.enc0 r.Client.enc1;
        leaf "client.write" r.Client.enc1 r.Client.w1;
        let wait = Span.add st ~parent:root ~req "client.wait" r.Client.w1 r.Client.r0 in
        leaf "client.read" r.Client.r0 r.Client.r1;
        leaf "client.decode" r.Client.r1 r.Client.d1;
        leaf "client.check" r.Client.d1 r.Client.c1;
        match r.Client.timing with
        | None -> ()
        | Some t ->
          let s = float_of_int t.Serve.t_server_us /. 1e6 in
          let q = float_of_int t.Serve.t_queue_us /. 1e6 in
          let sv = float_of_int t.Serve.t_service_us /. 1e6 in
          let t0 = r.Client.r0 -. s in
          let server = Span.add st ~parent:wait ~req "serve.server" t0 r.Client.r0 in
          ignore (Span.add st ~parent:server ~req "serve.queue" t0 (t0 +. q));
          ignore (Span.add st ~parent:server ~req "serve.frame_read" (t0 +. q) (r.Client.r0 -. sv));
          ignore (Span.add st ~parent:server ~req "serve.service" (r.Client.r0 -. sv) r.Client.r0)
      end)
    p.Client.records

(* The conservation check: per answered request, the daemon's echoed
   queue + frame read + service must fit inside the client's write +
   wait interval (it cannot take longer than the client waited for it),
   within [slop_ms]. [fill] is the echoed server time over that interval
   plus slop, so a request conserves when its fill is at most 1. (The
   client intervals themselves are differences of one sequence of
   stamps, so they sum to the latency by construction and are not
   checked.) *)
type conservation = { checked : int; within : int; max_fill : float; min_gap_ms : float }

let conservation (p : Client.phase) =
  Array.fold_left
    (fun c (r : Client.record) ->
      match (r.Client.outcome, r.Client.timing) with
      | Some Inputs.Ok_reply, Some t ->
        let client_ms = (r.Client.r0 -. r.Client.enc1) *. 1e3 and server_ms = ms_of_us t.Serve.t_server_us in
        let fill = server_ms /. (client_ms +. slop_ms) in
        {
          checked = c.checked + 1;
          within = (if fill <= 1. then c.within + 1 else c.within);
          max_fill = Float.max c.max_fill fill;
          min_gap_ms = Float.min c.min_gap_ms (client_ms -. server_ms);
        }
      | _ -> c)
    { checked = 0; within = 0; max_fill = 0.; min_gap_ms = infinity }
    p.Client.records

let conservation_line c =
  Printf.sprintf
    "conservation: %d of %d requests within %.2f ms slop, largest fill %.3f, smallest gap %.3f ms"
    c.within c.checked slop_ms c.max_fill c.min_gap_ms

let client_layers (p : Client.phase) =
  let iv f = Client.intervals p f in
  let lag = iv (fun r -> r.Client.enc0 -. r.Client.sched) in
  let us f = Stats.mean (iv f) *. 1e3 in
  let srv f = Client.server_ms p f in
  let gaps =
    Array.of_list
      (Array.fold_right
         (fun (r : Client.record) acc ->
           match (r.Client.outcome, r.Client.timing) with
           | Some Inputs.Ok_reply, Some t ->
             (((r.Client.r0 -. r.Client.enc1) *. 1e3) -. ms_of_us t.Serve.t_server_us) :: acc
           | _ -> acc)
         p.Client.records [])
  in
  let frame_read t = t.Serve.t_server_us - t.Serve.t_queue_us - t.Serve.t_service_us in
  let c = conservation p in
  [
    m "client.send_lag_p50_ms" "ms" (Stats.median lag);
    m "client.send_lag_p99_ms" "ms" (Stats.percentile lag 99.);
    m "client.cpu_share" "ratio" (p.Client.cpu_s /. p.Client.wall_s);
    m "client.encode_us" "us" (us (fun r -> r.Client.enc1 -. r.Client.enc0));
    m "client.decode_us" "us" (us (fun r -> r.Client.d1 -. r.Client.r1));
    m "client.check_us" "us" (us (fun r -> r.Client.c1 -. r.Client.d1));
    m "serve.queue_mean_ms" "ms" (Stats.mean (srv (fun t -> t.Serve.t_queue_us)));
    m "serve.queue_p99_ms" "ms" (Stats.percentile (srv (fun t -> t.Serve.t_queue_us)) 99.);
    m "serve.frame_read_p50_ms" "ms" (Stats.median (srv frame_read));
    m "serve.service_p50_ms" "ms" (Stats.median (srv (fun t -> t.Serve.t_service_us)));
    m "serve.service_p99_ms" "ms" (Stats.percentile (srv (fun t -> t.Serve.t_service_us)) 99.);
    m "serve.remainder_p50_ms" "ms" (Stats.median gaps);
    m "serve.remainder_p99_ms" "ms" (Stats.percentile gaps 99.);
    m "conservation.checked" "count" (float_of_int c.checked);
    m "conservation.within_share" "ratio" (float_of_int c.within /. float_of_int (max 1 c.checked));
    m "conservation.max_fill" "ratio" c.max_fill;
  ]

(* Mean self time per span name: the layer ledger printed with the
   traced run. *)
let ledger spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun ((s : Span.t), self) ->
      let n, tot = Option.value (Hashtbl.find_opt tbl s.Span.name) ~default:(0, 0.) in
      Hashtbl.replace tbl s.Span.name (n + 1, tot +. self))
    (Span.self_times spans);
  List.sort compare
    (Hashtbl.fold
       (fun name (n, tot) acc ->
         Printf.sprintf "  %-20s n=%-6d mean self %.4f ms" name n (tot /. float_of_int n *. 1e3) :: acc)
       tbl [])

(* --- in-process serving ---------------------------------------------------- *)

(* [Serve.handle_connection] on one end of a socketpair, on a second
   domain; returns the other end and a function that closes it and
   joins the domain. *)
let inproc_server () =
  let client, server = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let dom =
    Domain.spawn (fun () ->
        Serve.handle_connection ~jobs:1 server;
        Unix.close server)
  in
  let stop () =
    (try Unix.shutdown client Unix.SHUTDOWN_SEND with Unix.Unix_error _ -> ());
    Domain.join dom;
    Unix.close client
  in
  (client, stop)

let rec write_all fd s off =
  if off < String.length s then write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let rec read_exact fd b off len =
  if len > 0 then begin
    let k = Unix.read fd b off len in
    if k = 0 then failwith "in-process server closed";
    read_exact fd b (off + k) (len - k)
  end

(* One blocking request/reply exchange with the in-process server. *)
let roundtrip fd frame =
  write_all fd frame 0;
  let h = Bytes.create 10 in
  read_exact fd h 0 10;
  let rest = Bytes.get_uint8 h 5 + (Int32.to_int (Bytes.get_int32_be h 6) land 0xffffffff) in
  let b = Bytes.create (10 + rest) in
  Bytes.blit h 0 b 0 10;
  read_exact fd b 10 rest;
  Bytes.unsafe_to_string b

(* --- replay ------------------------------------------------------------------ *)

type replay = {
  r_count : int;
  r_decode_us : float;  (** mean Serve.decode_request *)
  r_encode_us : float;  (** mean Serve.encode_response *)
  r_serve_kb : float;  (** mean decode_request + encode_response allocation *)
  r_total_kb : float;  (** mean whole-request allocation, codec included *)
  r_conn_overhead_us : float;  (** median handle_connection exchange - handle_request *)
  r_failed : int;
}

(* Replay [reqs] in order on this domain, each request split at the
   layer boundaries the daemon crosses: frame decode, the codec job, the
   reply encode. Each request is then run once more through
   [Serve.handle_request] and once through [Serve.handle_connection]
   over a socketpair; their difference is the connection layer's cost. *)
let replay ~seconds (reqs : Inputs.request array) =
  let t_end = Clock.now () +. seconds in
  let fd, stop = inproc_server () in
  let dec = ref [] and enc = ref [] and serve_kb = ref [] and total_kb = ref [] and over = ref [] in
  let failed = ref 0 in
  let i = ref 0 in
  while !i < Array.length reqs && (!i = 0 || Clock.now () < t_end) do
    let r = reqs.(!i) in
    let frame = Serve.encode_request ~request_id:(Int64.of_int (!i + 1)) (Inputs.request_of r.Inputs.kind) in
    let w0 = Alloc.words () in
    let decoded, d_us, d_kb = Codec.call "serve.decode_request" (fun () -> Serve.decode_request frame) in
    let resp =
      match decoded with
      | Error _ -> Serve.Failed "frame does not decode"
      | Ok _ -> (
        match r.Inputs.kind with
        | Inputs.Ping -> Serve.Payload "pong"
        | Inputs.Fetch it -> Serve.Payload (Codec.decompress ~jobs:1 it.Inputs.image).Codec.code)
    in
    let _, e_us, e_kb = Codec.call "serve.encode_response" (fun () -> Serve.encode_response resp) in
    let w1 = Alloc.words () in
    if Inputs.check r resp <> Inputs.Ok_reply then incr failed;
    let _, hr_us, _ =
      Codec.call "serve.handle_request" (fun () -> Serve.handle_request ~jobs:1 (Inputs.request_of r.Inputs.kind))
    in
    let reply, conn_us, _ = Codec.call "serve.handle_connection" (fun () -> roundtrip fd frame) in
    (match Serve.decode_response reply with
    | Ok (resp, _) when Inputs.check r resp = Inputs.Ok_reply -> ()
    | _ -> incr failed);
    dec := d_us :: !dec;
    enc := e_us :: !enc;
    serve_kb := (d_kb +. e_kb) :: !serve_kb;
    total_kb := Alloc.kb_of_words (w1 -. w0) :: !total_kb;
    over := (conn_us -. hr_us) :: !over;
    incr i
  done;
  stop ();
  let a l = Array.of_list l in
  {
    r_count = !i;
    r_decode_us = Stats.mean (a !dec);
    r_encode_us = Stats.mean (a !enc);
    r_serve_kb = Stats.mean (a !serve_kb);
    r_total_kb = Stats.mean (a !total_kb);
    r_conn_overhead_us = Stats.median (a !over);
    r_failed = !failed;
  }

(* --- codec layers --------------------------------------------------------- *)

let per_kb bytes = bytes /. 1024.

let codec_layers (c : Codec.result) =
  let algo name (a : Codec.per_algo) =
    let blocks = Stats.sorted (Array.of_list a.Codec.block_us) in
    [
      m (name ^ ".compress_us_per_kb") "us/KB" (a.Codec.codec_us /. per_kb a.Codec.in_bytes);
      m (name ^ ".compress_alloc_kb_per_kb") "KB/KB" (a.Codec.codec_kb /. per_kb a.Codec.in_bytes);
      m (name ^ ".decompress_alloc_kb_per_kb") "KB/KB" (a.Codec.dec_kb /. per_kb a.Codec.out_bytes);
      m (name ^ ".block_decode_p50_us") "us" (Stats.percentile_sorted blocks 50.);
      m (name ^ ".block_decode_p99_us") "us" (Stats.percentile_sorted blocks 99.);
    ]
  in
  let mean l = Stats.mean (Array.of_list l) in
  let scaling (a : Codec.per_algo) =
    (a.Codec.jn_bytes /. a.Codec.jn_us) /. (float_of_int (nproc ()) *. (a.Codec.out_bytes /. a.Codec.j1_us))
  in
  algo "samc" c.Codec.samc @ algo "sadc" c.Codec.sadc
  @ [
      m "image.write_us" "us" (mean c.Codec.write_us);
      m "image.write_alloc_kb" "KB" (mean c.Codec.write_kb);
      m "image.read_us" "us" (mean c.Codec.read_us);
      m "image.read_alloc_kb" "KB" (mean c.Codec.read_kb);
      m "image.decompress_us" "us" (mean c.Codec.dec_us);
      m "par.scaling_samc" "ratio" (scaling c.Codec.samc);
      m "par.scaling_sadc" "ratio" (scaling c.Codec.sadc);
      m "par.tasks" "count" c.Codec.par_tasks;
    ]

let replay_layers r =
  [
    m "serve.decode_request_us" "us" r.r_decode_us;
    m "serve.encode_response_us" "us" r.r_encode_us;
    m "serve.conn_overhead_us" "us" r.r_conn_overhead_us;
    m "serve.alloc_kb_per_req" "KB" r.r_serve_kb;
    m "runtime.traced_alloc_kb_per_req" "KB" r.r_total_kb;
  ]

let with_tracing f =
  Obs.set_tracing true;
  Fun.protect ~finally:(fun () -> Obs.set_tracing false) f

(* --- the traced workloads --------------------------------------------------- *)

(* The serving layers: one traced phase against the daemon [d] at
   [rate] for [seconds], bracketed by its /snapshot, then the same
   requests replayed in process for [replay_s]. *)
type serving = {
  traced : Client.phase;
  rp : replay;
  layers : metric list;
  s_report : string list;
  spans : Span.t list;
}

let serving d ~mix ~rate ~seconds ~replay_s ~seed =
  let s0 = Daemon.snapshot d in
  let traced, reqs = phase ~echo:true d ~mix ~rate ~duration:seconds ~seed in
  let s1 = Daemon.snapshot d in
  let delta k = Daemon.counter s1 k -. Daemon.counter s0 k in
  let frames = Float.max 1. (delta "serve.frames") in
  let daemon_kb =
    Alloc.kb_of_words (delta "runtime.gc.minor_words" +. delta "runtime.gc.major_words") /. frames
  in
  let st = Span.create () in
  request_spans st traced;
  let spans = Span.spans st in
  let rp = with_tracing (fun () -> replay ~seconds:replay_s reqs) in
  {
    traced;
    rp;
    spans;
    layers =
      [
        m "nominal.p50_ms" "ms" (Stats.median (Client.latencies_ms traced));
        m "nominal.p99_ms" "ms" (Stats.percentile (Client.latencies_ms traced) 99.);
      ]
      @ client_layers traced @ replay_layers rp
      @ [
          m "serve.frames_per_conn" "count" (delta "serve.frames" /. Float.max 1. (delta "serve.connections"));
          m "runtime.daemon_alloc_kb_per_req" "KB" daemon_kb;
          m "runtime.daemon_over_traced_alloc" "ratio" (daemon_kb /. rp.r_total_kb);
          m "runtime.major_cycles_per_req" "count" (delta "runtime.gc.major_cycles" /. frames);
        ];
    s_report =
      [
        conservation_line (conservation traced);
        Printf.sprintf "replay: %d requests in process; daemon / traced allocation = %.1f / %.1f KB per request"
          rp.r_count daemon_kb rp.r_total_kb;
        "layer ledger (mean self time per span):";
      ]
      @ ledger spans;
  }

let serving_counts s =
  let a, f, w = failures s.traced in
  (a + s.rp.r_count, f + s.rp.r_failed, w + s.rp.r_failed)

let serve ~ccomp ~dir ~seed ~seconds =
  let items = Inputs.items (Inputs.programs ~scale:fetch_scale ~seed) in
  let mix = Inputs.fetch_mix items in
  let codec = with_tracing (fun () -> codec_phase items ~seconds:(0.25 *. seconds) ~seed) in
  let d, _ = start_daemon ~ccomp ~dir ~items ~index:0 in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let dur = 0.3 *. seconds in
  let plain, _ = phase ~echo:false d ~mix ~rate:nominal_rps ~duration:dur ~seed in
  let s = serving d ~mix ~rate:nominal_rps ~seconds:dur ~replay_s:(0.15 *. seconds) ~seed:(seed + 1) in
  let p50 p = Stats.median (Client.latencies_ms p) in
  let a1, f1, w1 = failures plain and a2, f2, w2 = serving_counts s in
  {
    spans = s.spans;
    attempted = a1 + a2 + codec.Codec.checked;
    failed = f1 + f2 + codec.Codec.failed;
    wrong_bytes = w1 + w2 + codec.Codec.failed;
    daemon_ocamlrunparam = Daemon.ocamlrunparam d.Daemon.pid;
    metrics = s.layers @ [ m "trace.overhead_ratio" "ratio" (p50 s.traced /. p50 plain) ] @ codec_layers codec;
    report =
      Printf.sprintf "untraced p50 %.3f ms, traced p50 %.3f ms (%d / %d samples)" (p50 plain) (p50 s.traced)
        (Client.ok plain) (Client.ok s.traced)
      :: s.s_report;
  }

(* codec-suite's serving layers come from the daemon serving
   decompressions of codec-suite's own images, at a rate that keeps
   these larger requests well inside one worker's capacity. *)
let codec_serving_rps = 50.

let codec ~ccomp ~dir ~seed ~seconds =
  let work = Inputs.work (Inputs.programs ~scale:codec_scale ~seed) in
  let plain = Codec.run ~calib:(Calib.create ()) ~seconds:(0.3 *. seconds) ~seed ~jobs:(nproc ()) work in
  let items = plain.Codec.items in
  let expected = Array.map (fun (it : Inputs.item) -> it.Inputs.image) items in
  let traced =
    with_tracing (fun () -> Codec.run ~expected ~calib:(Calib.create ()) ~seconds:(0.3 *. seconds) ~seed ~jobs:(nproc ()) work)
  in
  let d, _ = start_daemon ~ccomp ~dir ~items ~index:0 in
  Fun.protect ~finally:(fun () -> Daemon.stop d) @@ fun () ->
  let s =
    serving d ~mix:(Inputs.fetch_mix items) ~rate:codec_serving_rps ~seconds:(0.25 *. seconds)
      ~replay_s:(0.15 *. seconds) ~seed
  in
  let a, f, w = serving_counts s in
  let rate r = r.Codec.decompress_mbps in
  {
    spans = s.spans;
    attempted = plain.Codec.checked + traced.Codec.checked + a;
    failed = plain.Codec.failed + traced.Codec.failed + f;
    wrong_bytes = plain.Codec.failed + traced.Codec.failed + w;
    daemon_ocamlrunparam = Daemon.ocamlrunparam d.Daemon.pid;
    metrics = s.layers @ [ m "trace.overhead_ratio" "ratio" (rate plain /. rate traced) ] @ codec_layers traced;
    report = Printf.sprintf "untraced / traced decompress %.2f / %.2f MB/s" (rate plain) (rate traced) :: s.s_report;
  }
