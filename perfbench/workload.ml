(* The two workloads. Each returns its metrics by name and unit, the
   attempted / failed counts over every checked output, and a few lines
   of report. Which layer each workload stresses, and why, is in
   README.md. *)

module Serve = Ccomp_serve.Serve

type metric = { name : string; value : float; unit : string }

type result = {
  metrics : metric list;
  attempted : int;
  failed : int;
  wrong_bytes : int;  (** replies or outputs that decoded but differed *)
  report : string list;
  daemon_ocamlrunparam : string;  (** the daemon's effective GC settings, for the host stamp *)
  spans : Span.t list;  (** the traced run's request spans *)
}

let m name unit value = { name; value; unit }

(* How a metric is scaled to the reference host's speed (Calib): a
   time is divided by the run's slowdown, a rate multiplied by it; a
   single-block decode time is divided by the slowdown of random reads.
   ok_rate, peak_rss_mb and ratio are not speeds. *)
type speed = Time | Rate | Read_time | Not_speed

let scale (s : Calib.slowdowns) (x, sp) =
  match sp with
  | Not_speed -> x
  | Time -> { x with value = x.value /. s.Calib.compute }
  | Rate -> { x with value = x.value *. s.Calib.compute }
  | Read_time -> { x with value = x.value /. s.Calib.reads }

let scaled calib ms = List.map (scale (Calib.slowdowns calib)) ms

let raw_line ms =
  "unscaled: "
  ^ String.concat ", "
      (List.filter_map
         (fun (x, sp) -> if sp = Not_speed then None else Some (Printf.sprintf "%s %.4g" x.name x.value))
         ms)

let nproc () = Domain.recommended_domain_count ()

(* --- serve-fetch ------------------------------------------------------------ *)

(* ~1 ms decompressions of small whole programs plus pings (the mix is
   Inputs.fetch_mix), so framing, admission, queueing and reply writes
   are a large share of a request. The nominal rate is this benchmark's
   own choice: about a sixth of the capacity it measures on a 2-core
   host, so the nominal latency reads the daemon well below its knee. *)
let fetch_scale = 0.1

let nominal_rps = 200.

(* Capacity is measured closed loop: [depth] requests kept in flight
   over the connections, so the daemon's workers always have the next
   frame waiting while the backlog stays bounded. [cap_rps_max] only
   sizes the request sequence; a daemon that outruns it reads as
   running out of requests. *)
let depth = 8

let cap_rps_max = 10_000.

(* How a run's seconds are spent: [slices] rounds of a codec step, then
   a nominal window and a capacity window on a daemon started for the
   round, so drift in the host over the run hits every figure alike and
   no figure rests on one daemon process's luck (where its threads and
   heap landed). At 50 s a nominal window holds 583 requests. *)
let slices = 6

let codec_share = 0.35

let nominal_share = 0.35

let cap_share = 0.3

let failures (p : Client.phase) =
  Array.fold_left
    (fun (a, f, w) (r : Client.record) ->
      match r.Client.outcome with
      | None -> (a, f, w)
      | Some Inputs.Ok_reply -> (a + 1, f, w)
      | Some Inputs.Wrong_bytes -> (a + 1, f + 1, w + 1)
      | Some _ -> (a + 1, f + 1, w))
    (0, 0, 0) p.Client.records

let outcome_counts (p : Client.phase) =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun (r : Client.record) ->
      match r.Client.outcome with
      | Some o ->
        let k = Inputs.outcome_name o in
        Hashtbl.replace tbl k (1 + Option.value (Hashtbl.find_opt tbl k) ~default:0)
      | None -> ())
    p.Client.records;
  String.concat " " (Hashtbl.fold (fun k v acc -> Printf.sprintf "%s=%d" k v :: acc) tbl [])

(* One phase over two fresh keep-alive connections (nproc on the hosts
   this targets; never more than nproc): open loop at [rate], or closed
   loop at [depth] in flight for [duration] when [closed]. *)
let phase ?(closed = false) ~echo d ~mix ~rate ~duration ~seed =
  let offsets, reqs = Inputs.schedule ~mix ~rate ~duration ~seed in
  let fds = List.init (min 2 (nproc ())) (fun _ -> Daemon.connect d) in
  Fun.protect
    ~finally:(fun () -> List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) fds)
    (fun () ->
      let start = Clock.now () +. 0.005 in
      let closed = if closed then Some (depth, start +. duration) else None in
      (Client.run ?closed ~echo ~fds ~start ~offsets ~reqs (), reqs))

(* One capacity window: the daemon kept saturated for [seconds]. *)
let capacity_window d ~mix ~seconds ~seed =
  fst (phase ~closed:true ~echo:false d ~mix ~rate:cap_rps_max ~duration:seconds ~seed)

let warm_request items d =
  let it = items.(0) in
  match
    Serve.submit_timed ~timeout_s:30. ~host:Daemon.host ~port:d.Daemon.port
      (Serve.Decompress it.Inputs.image)
  with
  | Ok (Serve.Payload code, _) when String.equal code it.Inputs.prog.Inputs.code -> ()
  | Ok _ -> failwith "warm request: wrong reply"
  | Error e -> failwith ("warm request: " ^ e)

(* Start the daemon; returns it and the seconds its set-up took. *)
let start_daemon ~ccomp ~dir ~items ~index = Daemon.start ~ccomp ~dir ~index ~warm:(warm_request items)

(* One more set-up timing: a daemon started and stopped. *)
let setup_sample ~ccomp ~dir ~items ~index =
  let d, s = start_daemon ~ccomp ~dir ~items ~index in
  Daemon.stop d;
  s

(* Besides the start of each round's daemon, set-up is timed
   [setups_per_slice] more times in every slice of a run and reported as
   the median, so it samples the host over the whole run like every
   other figure. *)
let setups_per_slice = 2

let rounds_line (c : Codec.result) =
  let l a = String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.3f") a)) in
  let q a = Printf.sprintf "%.3f/%.3f/%.3f" (Stats.percentile a 25.) (Stats.median a) (Stats.percentile a 75.) in
  Printf.sprintf
    "per round MB/s: compress [%s] decompress [%s] decompress jobs=%d [%s]; block decode over %d chunks, quartiles of p50 %s us, of p99 %s us"
    (l c.Codec.round_compress_mbps) (l c.Codec.round_decompress_mbps) (nproc ())
    (l c.Codec.round_decompress_mbps_par) (Array.length c.Codec.block_p99_us) (q c.Codec.block_p50_us)
    (q c.Codec.block_p99_us)

let codec_metrics (c : Codec.result) ~attempted ~failed =
  let ok_rate = 1. -. (float_of_int failed /. float_of_int (max 1 attempted)) in
  [
    (m "ok_rate" "ratio" ok_rate, Not_speed);
    (m "compress_mbps" "MB/s" c.Codec.compress_mbps, Rate);
    (m "decompress_mbps" "MB/s" c.Codec.decompress_mbps, Rate);
    (m "decompress_mbps_par" "MB/s" c.Codec.decompress_mbps_par, Rate);
    (m "block_decode_p50_us" "us" (Stats.median c.Codec.block_p50_us), Read_time);
    (m "block_decode_p99_us" "us" (Stats.median c.Codec.block_p99_us), Read_time);
    (m "ratio" "ratio" c.Codec.ratio, Not_speed);
  ]

(* The in-process codec phase over serve-fetch's own images, each
   compress checked against the daemon's bytes. *)
let codec_session (items : Inputs.item array) ~calib ~seed =
  Codec.session ~calib ~seed ~jobs:(nproc ())
    ~expected:(Array.map (fun (it : Inputs.item) -> it.Inputs.image) items)
    (Array.map (fun (it : Inputs.item) -> (it.Inputs.prog, it.Inputs.algo)) items)

let codec_phase items ~seconds ~seed =
  let s = codec_session items ~calib:(Calib.create ()) ~seed in
  s.Codec.step ~seconds;
  s.Codec.finish ()

(* One nominal window: [seconds] at the nominal rate, with this
   process's major heap collected first so that the client's own
   garbage from the codec step does not stall its sends; the host's
   speed is sampled just before. Returns the phase and the daemon CPU
   seconds it took. *)
let nominal_window d ~calib ~mix ~seconds ~seed =
  Calib.sample calib;
  Gc.full_major ();
  let cpu0 = Daemon.cpu_s d.Daemon.pid in
  let p, _ = phase ~echo:false d ~mix ~rate:nominal_rps ~duration:seconds ~seed in
  (p, Daemon.cpu_s d.Daemon.pid -. cpu0)

let concat (ps : Client.phase list) =
  {
    Client.records = Array.concat (List.map (fun (p : Client.phase) -> p.Client.records) ps);
    wall_s = List.fold_left (fun a (p : Client.phase) -> a +. p.Client.wall_s) 0. ps;
    cpu_s = List.fold_left (fun a (p : Client.phase) -> a +. p.Client.cpu_s) 0. ps;
  }

let serve_untraced ~ccomp ~dir ~seed ~seconds =
  let items = Inputs.items (Inputs.programs ~scale:fetch_scale ~seed) in
  let mix = Inputs.fetch_mix items in
  let calib = Calib.create () in
  let codec_s = codec_session items ~calib ~seed in
  let slice share = share *. seconds /. float_of_int slices in
  let setups = ref [] and rss = ref [] and runparam = ref "" in
  let rounds =
    List.init slices (fun k ->
        codec_s.Codec.step ~seconds:(slice codec_share);
        let d, s = start_daemon ~ccomp ~dir ~items ~index:k in
        setups := s :: !setups;
        let r =
          Fun.protect
            ~finally:(fun () -> Daemon.stop d)
            (fun () ->
              let nominal = nominal_window d ~calib ~mix ~seconds:(slice nominal_share) ~seed:(seed + k) in
              Calib.sample calib;
              let saturated = capacity_window d ~mix ~seconds:(slice cap_share) ~seed:(seed + 1000 + k) in
              rss := Daemon.peak_rss_mb d.Daemon.pid :: !rss;
              runparam := Daemon.ocamlrunparam d.Daemon.pid;
              (nominal, saturated))
        in
        for i = 1 to setups_per_slice do
          setups := setup_sample ~ccomp ~dir ~items ~index:(slices + (k * setups_per_slice) + i) :: !setups
        done;
        r)
  in
  let setup_s = Stats.median (Array.of_list !setups) in
  let codec = codec_s.Codec.finish () in
  let windows = List.map (fun ((p, _), _) -> p) rounds in
  let nominal = concat windows in
  let daemon_cpu = List.fold_left (fun a ((_, c), _) -> a +. c) 0. rounds in
  let saturated = List.map snd rounds in
  let cap_rates = List.map (fun (p : Client.phase) -> float_of_int (Client.ok p) /. p.Client.wall_s) saturated in
  let rss = Stats.median (Array.of_list !rss) in
  let a, f, w = failures nominal in
  let pa, pf, pw = failures (concat saturated) in
  let attempted = a + pa + codec.Codec.checked and failed = f + pf + codec.Codec.failed in
  let lat = Client.latencies_ms nominal in
  let p99_of p = Stats.percentile (Client.latencies_ms p) 99. in
  let per_window f = String.concat " " (List.map (fun p -> Printf.sprintf "%.3f" (f p)) windows) in
  let raw =
    [
      (m "capacity_rps" "req/s" (Stats.median (Array.of_list cap_rates)), Rate);
      ( m "server_cpu_ms_per_req" "ms" (daemon_cpu *. 1e3 /. float_of_int (max 1 (Client.ok nominal))),
        Time );
      (m "peak_rss_mb" "MB" rss, Not_speed);
      (m "setup_s" "s" setup_s, Time);
    ]
    @ codec_metrics codec ~attempted ~failed
  in
  {
    metrics = scaled calib raw;
    attempted;
    failed;
    wrong_bytes = w + pw + codec.Codec.failed;
    report =
      [
        Calib.line calib;
        raw_line raw;
        Printf.sprintf "nominal: %.0f req/s Poisson in %d windows of %.1f s, %d samples, %s; latency p50 %.3f ms, p99 %.3f ms (unscaled, not bounded)"
          nominal_rps slices (slice nominal_share) (Array.length lat) (outcome_counts nominal) (Stats.median lat)
          (Stats.percentile lat 99.);
        "nominal: p50 per window (ms) " ^ per_window (fun p -> Stats.median (Client.latencies_ms p));
        "nominal: p99 per window (ms) " ^ per_window p99_of;
        Printf.sprintf "nominal: client cpu share %.3f, fail_rate %.5f" (nominal.Client.cpu_s /. nominal.Client.wall_s)
          (float_of_int f /. float_of_int (max 1 a));
      ]
      @ [
          Printf.sprintf "capacity: %d in flight over %d windows of %.1f s, %s; latency p50 %.3f ms, p99 %.3f ms"
            depth slices (slice cap_share) (outcome_counts (concat saturated))
            (Stats.median (Client.latencies_ms (concat saturated)))
            (Stats.percentile (Client.latencies_ms (concat saturated)) 99.);
          "capacity: replies/s per window (unscaled) "
          ^ String.concat " " (List.map (Printf.sprintf "%.1f") cap_rates);
          Printf.sprintf "codec phase: %d rounds in %d steps, %d checks, %d failed" codec.Codec.rounds slices
            codec.Codec.checked codec.Codec.failed;
          rounds_line codec;
          Printf.sprintf "fail_rate %.6f over %d checked outputs" (float_of_int failed /. float_of_int (max 1 attempted)) attempted;
        ];
    daemon_ocamlrunparam = !runparam;
    spans = [];
  }

(* --- codec-suite ------------------------------------------------------- *)

let codec_scale = 1.0

(* Set-up of the in-process codec: from the first call on a fresh
   process-wide pool to the first parallel call returning (pool spawn
   included). [codec_setup progs] returns a function that times it
   [repeats] times. *)
let codec_setup (progs : Inputs.program list) =
  let smallest =
    List.fold_left
      (fun a (p : Inputs.program) -> if String.length p.Inputs.code < String.length a.Inputs.code then p else a)
      (List.hd progs) progs
  in
  let image = (Codec.compress ~algo:Serve.Samc ~isa:smallest.Inputs.isa smallest.Inputs.code).Codec.bytes in
  let one () =
    Ccomp_par.Pool.shutdown ();
    let t0 = Clock.now () in
    let a = Codec.decompress ~jobs:1 image in
    let b = Codec.decompress ~jobs:(nproc ()) image in
    let t = Clock.now () -. t0 in
    if not (String.equal a.Codec.code b.Codec.code && String.equal a.Codec.code smallest.Inputs.code) then
      failwith "codec set-up: decompressed program differs";
    t
  in
  fun ~repeats -> List.init repeats (fun _ -> one ())

(* Pool spawns timed before each of codec-suite's rounds. *)
let codec_setups_per_round = 4

let self_rss_mb () = Daemon.peak_rss_mb (Unix.getpid ())

let codec_untraced ~seed ~seconds =
  let progs = Inputs.programs ~scale:codec_scale ~seed in
  let setup = codec_setup progs in
  let calib = Calib.create () in
  let setups = ref [] in
  let on_round () = setups := setup ~repeats:codec_setups_per_round @ !setups in
  let s = Codec.session ~on_round ~calib ~seed ~jobs:(nproc ()) (Inputs.work progs) in
  s.Codec.step ~seconds;
  let setup_s = Stats.median (Array.of_list !setups) in
  let c = s.Codec.finish () in
  let items = c.Codec.items in
  let lat = Stats.sorted c.Codec.image_ms in
  let attempted = c.Codec.checked and failed = c.Codec.failed in
  let raw =
    [
      (m "capacity_rps" "req/s" c.Codec.images_per_s_par, Rate);
      (m "server_cpu_ms_per_req" "ms" c.Codec.cpu_ms_per_image, Time);
      (m "peak_rss_mb" "MB" (self_rss_mb ()), Not_speed);
      (m "setup_s" "s" setup_s, Time);
    ]
    @ codec_metrics c ~attempted ~failed
  in
  {
    metrics = scaled calib raw;
    attempted;
    failed;
    wrong_bytes = failed;
    report =
      [
        Calib.line calib;
        raw_line raw;
        Printf.sprintf "codec-suite: %d images, %d rounds, %d whole-image decode samples, %d block decodes"
          (Array.length items) c.Codec.rounds (Array.length lat) c.Codec.block_decodes;
        Printf.sprintf "whole-image read + decompress at jobs=1: p50 %.3f ms, p99 %.3f ms (unscaled, not bounded)"
          (Stats.percentile_sorted lat 50.) (Stats.percentile_sorted lat 99.);
        rounds_line c;
        Printf.sprintf "fail_rate %.6f over %d checked outputs" (float_of_int failed /. float_of_int (max 1 attempted)) attempted;
      ];
    daemon_ocamlrunparam = "";
    spans = [];
  }
