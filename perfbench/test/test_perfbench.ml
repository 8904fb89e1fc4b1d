(* The benchmark's own logic: inputs, the output check, span arithmetic,
   allocation counting, the host stamp and the conservation check. No
   daemon and no timing. *)

open Perfbench
module Serve = Ccomp_serve.Serve

let items = lazy (Inputs.items (Inputs.programs ~scale:0.05 ~seed:3))

let kind_label = function
  | Inputs.Ping -> "ping"
  | Inputs.Fetch it -> "fetch " ^ it.Inputs.prog.Inputs.label ^ " " ^ Inputs.algo_name it.Inputs.algo

let schedule_of ~seed =
  let items = Lazy.force items in
  let offsets, reqs =
    Inputs.schedule ~mix:(Inputs.fetch_mix items) ~rate:200. ~duration:2. ~seed
  in
  (offsets, Array.map (fun r -> kind_label r.Inputs.kind) reqs)

let test_schedule_deterministic () =
  let o1, k1 = schedule_of ~seed:42 and o2, k2 = schedule_of ~seed:42 in
  Alcotest.(check (array (float 0.))) "same offsets" o1 o2;
  Alcotest.(check (array string)) "same requests" k1 k2;
  Alcotest.(check bool) "offsets ascend within the horizon" true
    (Array.for_all (fun o -> o >= 0. && o < 2.) o1
    && Array.for_all Fun.id (Array.init (Array.length o1 - 1) (fun i -> o1.(i) <= o1.(i + 1))));
  let o3, k3 = schedule_of ~seed:43 in
  Alcotest.(check bool) "another seed, another schedule" true (o1 <> o3 || k1 <> k3)

(* Every program is whole: all four algo x ISA pairs compress it (the
   daemon's own dispatch), the image decompresses back to it, and the
   driver's layer-split compress makes the same bytes as the daemon. *)
let test_payloads_whole_programs () =
  let items = Lazy.force items in
  Alcotest.(check int) "18 profiles x 2 ISAs x 2 algos" 72 (Array.length items);
  let pairs = Hashtbl.create 4 in
  Array.iter
    (fun (it : Inputs.item) ->
      Hashtbl.replace pairs (it.Inputs.algo, it.Inputs.prog.Inputs.isa) ();
      let label = it.Inputs.prog.Inputs.label ^ " " ^ Inputs.algo_name it.Inputs.algo in
      (match Serve.handle_request ~jobs:1 (Serve.Decompress it.Inputs.image) with
      | Serve.Payload code -> Alcotest.(check bool) (label ^ " round-trips") true (code = it.Inputs.prog.Inputs.code)
      | _ -> Alcotest.fail (label ^ " does not decompress"));
      let c = Codec.compress ~algo:it.Inputs.algo ~isa:it.Inputs.prog.Inputs.isa it.Inputs.prog.Inputs.code in
      Alcotest.(check bool) (label ^ " split compress = daemon bytes") true (c.Codec.bytes = it.Inputs.image))
    items;
  Alcotest.(check int) "all four pairs" 4 (Hashtbl.length pairs)

let test_check_flags_corruption () =
  let it = (Lazy.force items).(5) in
  let req = Inputs.make_request (Inputs.Fetch it) in
  let good = it.Inputs.prog.Inputs.code in
  let bad = Bytes.of_string good in
  let k = Bytes.length bad / 2 in
  Bytes.set bad k (Char.chr (Char.code (Bytes.get bad k) lxor 1));
  let through_wire p =
    match Serve.decode_response (Serve.encode_response (Serve.Payload p)) with
    | Ok (resp, _) -> resp
    | Error e -> Alcotest.fail e
  in
  Alcotest.(check string) "intact reply" "ok" (Inputs.outcome_name (Inputs.check req (through_wire good)));
  Alcotest.(check string) "one flipped bit" "wrong_bytes"
    (Inputs.outcome_name (Inputs.check req (through_wire (Bytes.to_string bad))));
  Alcotest.(check string) "typed error" "error" (Inputs.outcome_name (Inputs.check req (Serve.Failed "x")))

(* root [0,10]: children [1,3] and [2,5] overlap, [8,12] runs past the
   end; covered = [1,5] + [8,10] = 6, so self = 4. [2,5] has a child
   [3,4]: self 2. *)
let test_self_time () =
  let st = Span.create () in
  let root = Span.add st ~parent:0 ~req:1 "root" 0. 10. in
  ignore (Span.add st ~parent:root ~req:1 "a" 1. 3.);
  let b = Span.add st ~parent:root ~req:1 "b" 2. 5. in
  ignore (Span.add st ~parent:root ~req:1 "c" 8. 12.);
  ignore (Span.add st ~parent:b ~req:1 "d" 3. 4.);
  let self name =
    snd (List.find (fun ((s : Span.t), _) -> s.Span.name = name) (Span.self_times (Span.spans st)))
  in
  Alcotest.(check (float 1e-9)) "root" 4. (self "root");
  Alcotest.(check (float 1e-9)) "b" 2. (self "b");
  Alcotest.(check (float 1e-9)) "leaf a" 2. (self "a");
  Alcotest.(check (float 1e-9)) "leaf d" 1. (self "d")

(* A 1 MB buffer goes straight to the major heap; Gc.minor_words alone
   would miss it. *)
let test_alloc_counts_major () =
  let n = 1 lsl 20 in
  let b, kb = Alloc.measure (fun () -> Bytes.create n) in
  Alcotest.(check bool) "buffer made" true (Bytes.length b = n);
  Alcotest.(check bool) (Printf.sprintf "%.0f KB >= 1024 KB" kb) true (kb >= 1024.);
  let _, small = Alloc.measure (fun () -> ()) in
  Alcotest.(check bool) "nothing allocated reads small" true (small < 1.)

let test_stamp_host_changed () =
  let a = Stamp.make ~workload:"serve-fetch" ~seed:1 ~seconds:30 ~trace:false ~daemon_flags:"serve" ~daemon_ocamlrunparam:"" in
  let other = List.map (fun (k, v) -> if k = "cpu_model" then (k, v ^ " (other)") else (k, v)) a in
  let reseeded = List.map (fun (k, v) -> if k = "seed" then (k, "2") else (k, v)) a in
  Alcotest.(check bool) "same host compares" true (Stamp.comparable a reseeded = Ok ());
  match Stamp.comparable a other with
  | Ok () -> Alcotest.fail "another CPU compared as the same host"
  | Error e ->
    Alcotest.(check bool) e true (String.length e >= 12 && String.sub e 0 12 = "host changed")

(* Answered requests with 2 ms from the start of their write to the
   first reply byte: an echoed server time of 1.9 ms fits, 2.5 ms does
   not. *)
let test_conservation_flags_overrun () =
  let record ~server_us =
    {
      Client.sched = 0.;
      enc0 = 0.;
      enc1 = 0.001;
      w1 = 0.0015;
      r0 = 0.003;
      r1 = 0.003;
      d1 = 0.003;
      c1 = 0.003;
      outcome = Some Inputs.Ok_reply;
      timing =
        Some { Serve.t_request_id = 1L; t_queue_us = 0; t_service_us = server_us / 2; t_server_us = server_us };
    }
  in
  let phase records = { Client.records; wall_s = 1.; cpu_s = 0. } in
  let fits = Traced.conservation (phase [| record ~server_us:1900 |]) in
  Alcotest.(check int) "a fitting request conserves" 1 fits.Traced.within;
  let c = Traced.conservation (phase [| record ~server_us:1900; record ~server_us:2500 |]) in
  Alcotest.(check int) "both checked" 2 c.Traced.checked;
  Alcotest.(check int) "the overrun is flagged" 1 c.Traced.within;
  Alcotest.(check bool) (Printf.sprintf "fill %.3f > 1" c.Traced.max_fill) true (c.Traced.max_fill > 1.)

let test_percentiles () =
  let a = Array.init 1000 (fun i -> float_of_int (1000 - i)) in
  Alcotest.(check (float 0.)) "p50" 500. (Stats.percentile a 50.);
  Alcotest.(check (float 0.)) "p99" 990. (Stats.percentile a 99.);
  Alcotest.(check bool) "empty reads nan" true (Float.is_nan (Stats.median [||]))

(* Host-speed scaling: a time is divided by the slowdown, a rate
   multiplied by it, a single-block decode time divided by the slowdown
   of random reads, and a metric that is not a speed is left alone. *)
let test_scaling () =
  let s = { Calib.compute = 2.; reads = 4. } in
  let scaled sp = (Workload.scale s (Workload.m "x" "x" 12., sp)).Workload.value in
  Alcotest.(check (float 1e-12)) "a time halves on a host twice as slow" 6. (scaled Workload.Time);
  Alcotest.(check (float 1e-12)) "a rate doubles" 24. (scaled Workload.Rate);
  Alcotest.(check (float 1e-12)) "a block decode follows random reads" 3. (scaled Workload.Read_time);
  Alcotest.(check (float 1e-12)) "not a speed" 12. (scaled Workload.Not_speed)

(* The calibration kernel must not depend on the heap the program left:
   once its buffers exist, everything a timing allocates dies young, so
   nothing reaches the major heap. *)
let test_calibration_promotes_nothing () =
  let b = Calib.buffers () in
  let promoted () =
    let _, p, _ = Gc.counters () in
    p
  in
  let p0 = promoted () in
  let _, kb = Alloc.measure (fun () -> Calib.kernel b) in
  let words = promoted () -. p0 in
  Alcotest.(check bool) (Printf.sprintf "%.0f KB allocated" kb) true (kb > 1000.);
  Alcotest.(check bool) (Printf.sprintf "%.0f words promoted" words) true (words < 1000.)

(* A pass rate is taken over each image's median time, so one stalled
   sample does not move it. *)
let test_median_pass () =
  let steady = [| [ 1.; 1.; 1. ]; [ 2.; 2.; 2. ] |] and stalled = [| [ 1.; 50.; 1. ]; [ 2.; 2.; 2. ] |] in
  Alcotest.(check (float 0.)) "sum of medians" 3. (Codec.median_pass steady);
  Alcotest.(check (float 0.)) "a stall is ignored" 3. (Codec.median_pass stalled)

let () =
  Alcotest.run "perfbench"
    [
      ( "inputs",
        [
          Alcotest.test_case "schedule is deterministic per seed" `Quick test_schedule_deterministic;
          Alcotest.test_case "payloads are whole programs every pair accepts" `Quick
            test_payloads_whole_programs;
          Alcotest.test_case "output check flags a one-byte corruption" `Quick test_check_flags_corruption;
        ] );
      ( "measurement",
        [
          Alcotest.test_case "self time on a synthetic span tree" `Quick test_self_time;
          Alcotest.test_case "allocation counting includes the major heap" `Quick test_alloc_counts_major;
          Alcotest.test_case "a result from another host is refused" `Quick test_stamp_host_changed;
          Alcotest.test_case "conservation flags a server time past the client's wait" `Quick
            test_conservation_flags_overrun;
          Alcotest.test_case "nearest-rank percentiles" `Quick test_percentiles;
          Alcotest.test_case "speeds are scaled to the reference host" `Quick test_scaling;
          Alcotest.test_case "the calibration kernel promotes nothing" `Quick test_calibration_promotes_nothing;
          Alcotest.test_case "pass rates use each image's median time" `Quick test_median_pass;
        ] );
    ]
