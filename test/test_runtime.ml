(* Runtime telemetry: deltas are non-negative, the global counters are
   monotone however many domains sample concurrently, they add up to
   what the process allocated however many domains sample, and the
   major-cycle alarm fires once per cycle. Every test restores the
   metrics-off default so suites stay independent. *)

module Obs = Ccomp_obs.Obs
module Runtime = Ccomp_obs.Runtime

let isolated f =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_metrics false;
      Obs.reset ())
    (fun () ->
      Obs.reset ();
      f ())

(* Allocate [n] short-lived boxed values so the minor heap sees real
   traffic; opaque_identity keeps flambda-style optimisers honest. The
   closing [Gc.minor ()] matters: OCaml 5 publishes the per-domain
   allocation counters lazily, so without a collection a subsequent
   [Gc.quick_stat] may not see the churn at all. *)
let churn n =
  let acc = ref [] in
  for i = 0 to n - 1 do
    acc := string_of_int i :: !acc
  done;
  ignore (Sys.opaque_identity !acc);
  Gc.minor ()

let nonneg (d : Runtime.delta) =
  d.Runtime.d_minor_collections >= 0
  && d.Runtime.d_major_collections >= 0
  && d.Runtime.d_compactions >= 0
  && d.Runtime.d_minor_words >= 0.0
  && d.Runtime.d_promoted_words >= 0.0
  && d.Runtime.d_major_words >= 0.0

let counter_value snap name =
  match List.assoc_opt name snap.Obs.counters with Some v -> v | None -> 0

let runtime_counters =
  [
    "runtime.gc.minor_collections";
    "runtime.gc.major_collections";
    "runtime.gc.compactions";
    "runtime.gc.minor_words";
    "runtime.gc.promoted_words";
    "runtime.gc.major_words";
    "runtime.gc.major_cycles";
  ]

(* --- guard behaviour ----------------------------------------------------- *)

let test_disabled () =
  isolated (fun () ->
      Alcotest.(check bool) "probe off = None" true (Runtime.probe () = None);
      Runtime.tick ();
      (* must not raise *)
      Alcotest.(check bool) "sample off = zero delta" true (Runtime.sample () = Runtime.delta_zero);
      churn 10_000;
      Alcotest.(check bool) "still zero after churn" true (Runtime.sample () = Runtime.delta_zero);
      let snap = Obs.snapshot () in
      List.iter
        (fun name ->
          Alcotest.(check int) (name ^ " untouched when metrics off") 0 (counter_value snap name))
        runtime_counters)

let test_stage_delta () =
  isolated (fun () ->
      Alcotest.(check bool) "None/None is zero" true
        (Runtime.stage_delta None None = Runtime.delta_zero);
      Obs.set_metrics true;
      let a = Runtime.probe () in
      Alcotest.(check bool) "probe on = Some" true (a <> None);
      churn 50_000;
      let b = Runtime.probe () in
      Alcotest.(check bool) "mixed None sides are zero" true
        (Runtime.stage_delta None b = Runtime.delta_zero
        && Runtime.stage_delta a None = Runtime.delta_zero);
      let d = Runtime.stage_delta a b in
      Alcotest.(check bool) "forward delta non-negative" true (nonneg d);
      Alcotest.(check bool) "forward delta saw the allocation" true
        (d.Runtime.d_minor_words +. d.Runtime.d_major_words > 0.0);
      Alcotest.(check bool) "alloc_mb positive for a real delta" true (Runtime.alloc_mb d > 0.0);
      (* swapped arguments clamp at zero instead of going negative *)
      let r = Runtime.stage_delta b a in
      Alcotest.(check bool) "reversed delta clamps to zero" true
        (nonneg r && r.Runtime.d_minor_words = 0.0))

(* --- qcheck: delta non-negativity ---------------------------------------- *)

let qcheck_delta_nonneg =
  QCheck.Test.make ~count:40 ~name:"runtime.sample deltas are non-negative"
    QCheck.(int_range 0 20_000)
    (fun n ->
      isolated (fun () ->
          Obs.set_metrics true;
          ignore (Runtime.sample ());
          churn n;
          let d = Runtime.sample () in
          nonneg d
          && Runtime.alloc_mb d >= 0.0
          && (n < 1_000 || d.Runtime.d_minor_words +. d.Runtime.d_major_words > 0.0)))

(* --- qcheck: monotone counters under concurrent domains ------------------ *)

let qcheck_counters_monotone =
  QCheck.Test.make ~count:8
    ~name:"global runtime counters are monotone under concurrent domains"
    QCheck.(pair (int_range 1 3) (int_range 1 4))
    (fun (domains, rounds) ->
      isolated (fun () ->
          Obs.set_metrics true;
          let workers =
            List.init domains (fun _ ->
                Domain.spawn (fun () ->
                    List.init rounds (fun _ ->
                        churn 2_000;
                        Runtime.sample ())))
          in
          (* poll the shared registry while the workers hammer it: every
             successive snapshot must be componentwise >= the previous *)
          let monotone = ref true in
          let prev = ref (Obs.snapshot ()) in
          for _ = 1 to 5 do
            churn 500;
            ignore (Runtime.sample ());
            let cur = Obs.snapshot () in
            List.iter
              (fun name ->
                if counter_value cur name < counter_value !prev name then monotone := false)
              runtime_counters;
            prev := cur
          done;
          let per_domain = List.concat_map Domain.join workers in
          let final = Obs.snapshot () in
          List.iter
            (fun name ->
              if counter_value final name < counter_value !prev name then monotone := false)
            runtime_counters;
          !monotone
          && List.for_all nonneg per_domain
          (* every domain allocated, so the global word counter must have
             absorbed at least one positive contribution *)
          && counter_value final "runtime.gc.minor_words" > 0))

(* --- alarm: major cycles and pause estimates ----------------------------- *)

let test_alarm_counts_major_cycles () =
  isolated (fun () ->
      Obs.set_metrics true;
      Runtime.install_alarm ();
      Runtime.install_alarm ();
      (* idempotent *)
      let before = counter_value (Obs.snapshot ()) "runtime.gc.major_cycles" in
      Runtime.tick ();
      Gc.full_major ();
      Gc.full_major ();
      let snap = Obs.snapshot () in
      let after = counter_value snap "runtime.gc.major_cycles" in
      Alcotest.(check bool)
        (Printf.sprintf "major cycles advanced (%d -> %d)" before after)
        true (after > before);
      (* the tick was stamped right before the forced major, so the
         pause estimate is fresh and must have been observed *)
      let pauses =
        List.find_opt
          (fun (h : Obs.histogram_stats) -> h.Obs.hs_name = Runtime.major_pause_histogram_name)
          snap.Obs.histograms
      in
      match pauses with
      | Some h ->
        Alcotest.(check bool) "pause estimates are non-negative" true (h.Obs.hs_min >= 0.0)
      | None -> Alcotest.fail "no runtime.gc.major_pause_us observations after a forced major")

let test_sample_refreshes_gauges () =
  isolated (fun () ->
      Obs.set_metrics true;
      churn 20_000;
      ignore (Runtime.sample ());
      let snap = Obs.snapshot () in
      let gauge name = List.assoc_opt name snap.Obs.gauges in
      (match gauge "runtime.gc.heap_words" with
      | Some v -> Alcotest.(check bool) "heap_words gauge positive" true (v > 0.0)
      | None -> Alcotest.fail "runtime.gc.heap_words gauge missing after sample");
      (* runtime.domains is bumped once per domain for the life of the
         process, so after an Obs.reset an already-counted domain leaves
         it untouched — present means >= 1, absent is fine *)
      (match gauge "runtime.domains" with
      | Some v -> Alcotest.(check bool) "domains gauge >= 1" true (v >= 1.0)
      | None -> ());
      (match gauge "runtime.alloc_rate_mbps" with
      | Some v -> Alcotest.(check bool) "alloc rate non-negative" true (v >= 0.0)
      | None -> Alcotest.fail "runtime.alloc_rate_mbps gauge missing after sample");
      match gauge "runtime.gc.space_overhead" with
      | Some v -> Alcotest.(check bool) "space_overhead mirrors Gc params" true (v > 0.0)
      | None -> Alcotest.fail "runtime.gc.space_overhead gauge missing after sample")

(* --- conservation: the counters add up to what the process did ---------- *)

(* Exactly [w] words on the minor heap, in 16-word blocks (a 15-field
   array plus its header). *)
let alloc_words w =
  for _ = 1 to w / 16 do
    ignore (Sys.opaque_identity (Array.make 15 0))
  done

let words_per_domain = 2_000_000

(* [k] domains each allocate [words_per_domain] words and sample before
   and after: every domain samples, yet the words are booked once. *)
let test_minor_words_conserved k () =
  isolated (fun () ->
      Obs.set_metrics true;
      Gc.minor ();
      ignore (Runtime.sample ());
      let before = counter_value (Obs.snapshot ()) "runtime.gc.minor_words" in
      let domains =
        List.init k (fun _ ->
            Domain.spawn (fun () ->
                ignore (Runtime.sample ());
                alloc_words words_per_domain;
                Gc.minor ();
                ignore (Runtime.sample ())))
      in
      List.iter Domain.join domains;
      Gc.minor ();
      ignore (Runtime.sample ());
      let got = counter_value (Obs.snapshot ()) "runtime.gc.minor_words" - before in
      let want = k * words_per_domain in
      Alcotest.(check bool)
        (Printf.sprintf "%d sampling domains: %d minor words booked for %d allocated" k got want)
        true
        (abs (got - want) * 20 <= want))

(* Major cycles forced on this domain while [k - 1] more domains are
   alive, have sampled and have asked for the alarm: the count must not
   depend on [k]. *)
let cycles_with k =
  isolated (fun () ->
      Obs.set_metrics true;
      Runtime.install_alarm ();
      let stop = Atomic.make false and ready = Atomic.make 0 in
      let domains =
        List.init (k - 1) (fun _ ->
            Domain.spawn (fun () ->
                Runtime.install_alarm ();
                ignore (Runtime.sample ());
                Atomic.incr ready;
                while not (Atomic.get stop) do
                  Domain.cpu_relax ()
                done))
      in
      while Atomic.get ready < k - 1 do
        Domain.cpu_relax ()
      done;
      let before = counter_value (Obs.snapshot ()) "runtime.gc.major_cycles" in
      Gc.full_major ();
      Gc.full_major ();
      (* give every live domain time to run its end-of-cycle hooks *)
      Unix.sleepf 0.05;
      Atomic.set stop true;
      List.iter Domain.join domains;
      counter_value (Obs.snapshot ()) "runtime.gc.major_cycles" - before)

let test_major_cycles_counted_once () =
  let one = cycles_with 1 in
  Alcotest.(check bool) (Printf.sprintf "forced majors counted (%d)" one) true (one > 0);
  List.iter
    (fun k -> Alcotest.(check int) (Printf.sprintf "major cycles with %d sampling domains" k) one (cycles_with k))
    [ 2; 4 ]

let suite =
  [
    Alcotest.test_case "minor words add up with 1 sampling domain" `Quick
      (test_minor_words_conserved 1);
    Alcotest.test_case "minor words add up with 2 sampling domains" `Quick
      (test_minor_words_conserved 2);
    Alcotest.test_case "minor words add up with 4 sampling domains" `Quick
      (test_minor_words_conserved 4);
    Alcotest.test_case "major cycles do not scale with sampling domains" `Quick
      test_major_cycles_counted_once;
    Alcotest.test_case "everything is a no-op with metrics off" `Quick test_disabled;
    Alcotest.test_case "stage deltas: zero on None, clamped on swap" `Quick test_stage_delta;
    QCheck_alcotest.to_alcotest qcheck_delta_nonneg;
    QCheck_alcotest.to_alcotest qcheck_counters_monotone;
    Alcotest.test_case "gc alarm counts major cycles + pause estimates" `Quick
      test_alarm_counts_major_cycles;
    Alcotest.test_case "sample refreshes heap/domain gauges" `Quick test_sample_refreshes_gauges;
  ]
