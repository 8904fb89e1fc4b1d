(* Domain-safe OCaml runtime telemetry: process-wide GC deltas, an
   end-of-major-cycle pause estimator, and allocation-rate gauges.

   On OCaml 5.1 [Gc.quick_stat] is cheap (no heap walk, no
   stop-the-world) but it describes the whole process, not the calling
   domain: it adds the other domains' counters as of their last minor
   collection (and those of domains that have exited) to the caller's
   own. A child domain allocating 30 M words moves the main domain's
   [quick_stat] by 30 M words while the main domain's own
   [Gc.minor_words] moves by about a hundred. So the previous reading
   lives in one process-wide slot: whichever domain calls [sample] folds
   the process's growth since the last call into the [Obs] registry,
   and the counters add up to what the process did however many domains
   sample.

   Pause observation: [Gc.create_alarm] runs its callback at the end of
   every major GC cycle on each domain that created one, so the alarm
   is installed once per process (a second one would count every cycle
   twice). OCaml gives no direct slice duration, so we estimate the way
   userland hiccup meters do: the serve pipeline calls [tick] at every
   request-stage boundary, stamping "a mutator was demonstrably running
   now"; the alarm observes now - last_tick as the stall bound. Under
   load, ticks are hundreds of microseconds apart, so the estimate is
   tight; a stale tick (> [stale_tick_us], i.e. an idle process) is
   skipped rather than booked as a giant fake pause.

   Everything is behind the registry's one-atomic-load-when-off guard:
   with metrics disabled, [probe]/[sample]/[tick] and the alarm body
   return immediately. *)

module H = Obs.Histogram

(* --- registry surface --------------------------------------------------- *)

let c_minor_collections = Obs.Counter.make "runtime.gc.minor_collections"

let c_major_collections = Obs.Counter.make "runtime.gc.major_collections"

let c_compactions = Obs.Counter.make "runtime.gc.compactions"

let c_minor_words = Obs.Counter.make "runtime.gc.minor_words"

let c_promoted_words = Obs.Counter.make "runtime.gc.promoted_words"

let c_major_words = Obs.Counter.make "runtime.gc.major_words"

let c_major_cycles = Obs.Counter.make "runtime.gc.major_cycles"

let g_heap_words = Obs.Gauge.make "runtime.gc.heap_words"

let g_top_heap_words = Obs.Gauge.make "runtime.gc.top_heap_words"

let g_space_overhead = Obs.Gauge.make "runtime.gc.space_overhead"

let g_alloc_rate = Obs.Gauge.make "runtime.alloc_rate_mbps"

let g_domains = Obs.Gauge.make "runtime.domains"

let h_major_pause = H.make "runtime.gc.major_pause_us"

let major_pause_histogram_name = "runtime.gc.major_pause_us"

(* A pause estimate is only meaningful when the mutator ticked
   recently; an idle domain's first major cycle after a quiet second
   would otherwise book the whole quiet period as a "pause". *)
let stale_tick_us = 250_000.0

(* --- deltas --------------------------------------------------------------- *)

type delta = {
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  d_minor_words : float;  (** words allocated on the minor heap *)
  d_promoted_words : float;  (** words that survived into the major heap *)
  d_major_words : float;  (** words allocated directly on the major heap *)
}

let delta_zero =
  {
    d_minor_collections = 0;
    d_major_collections = 0;
    d_compactions = 0;
    d_minor_words = 0.0;
    d_promoted_words = 0.0;
    d_major_words = 0.0;
  }

(* [major_words] counts promoted words too; subtracting them leaves
   direct major allocation, so d_minor_words + d_major_words is total
   words the mutator allocated. Clamp at 0 against float jitter. *)
let delta_between (a : Gc.stat) (b : Gc.stat) =
  let pos v = if v < 0.0 then 0.0 else v in
  let posi v = if v < 0 then 0 else v in
  {
    d_minor_collections = posi (b.Gc.minor_collections - a.Gc.minor_collections);
    d_major_collections = posi (b.Gc.major_collections - a.Gc.major_collections);
    d_compactions = posi (b.Gc.compactions - a.Gc.compactions);
    d_minor_words = pos (b.Gc.minor_words -. a.Gc.minor_words);
    d_promoted_words = pos (b.Gc.promoted_words -. a.Gc.promoted_words);
    d_major_words =
      pos (b.Gc.major_words -. a.Gc.major_words -. (b.Gc.promoted_words -. a.Gc.promoted_words));
  }

let words_to_mb w = w *. float_of_int (Sys.word_size / 8) /. 1e6

let alloc_mb d = words_to_mb (d.d_minor_words +. d.d_major_words)

(* The reading the next [sample] subtracts from, and when it was taken.
   Taken at module load, so the counters add up to the process's growth
   since then. *)
let last_mutex = Mutex.create ()

let last_stat = ref (Gc.quick_stat ())

let last_us = ref (Obs.now_us ())

(* The most recent [tick] by any domain. *)
let tick_us = Atomic.make (Obs.now_us ())

(* [runtime.domains] counts each domain the first time it samples. *)
let counted : bool ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref false)

let domains_sampling = Atomic.make 0

(* --- API ----------------------------------------------------------------- *)

let probe () = if Obs.metrics_enabled () then Some (Gc.quick_stat ()) else None

let stage_delta a b =
  match (a, b) with Some a, Some b -> delta_between a b | _ -> delta_zero

let tick () = if Obs.metrics_enabled () then Atomic.set tick_us (Obs.now_us ())

(* Fold the process's growth since the previous sample (by any domain)
   into the counters, refresh the gauges, return the delta. The reading
   and the swap happen under one lock, so concurrent samplers split the
   growth between them instead of each booking all of it. *)
let sample () =
  if not (Obs.metrics_enabled ()) then delta_zero
  else begin
    let seen = Domain.DLS.get counted in
    if not !seen then begin
      seen := true;
      Obs.Gauge.set g_domains (float_of_int (Atomic.fetch_and_add domains_sampling 1 + 1))
    end;
    Mutex.lock last_mutex;
    let cur = Gc.quick_stat () in
    let now = Obs.now_us () in
    let d = delta_between !last_stat cur in
    let dt_s = (now -. !last_us) /. 1e6 in
    last_stat := cur;
    last_us := now;
    Mutex.unlock last_mutex;
    Obs.Counter.add c_minor_collections d.d_minor_collections;
    Obs.Counter.add c_major_collections d.d_major_collections;
    Obs.Counter.add c_compactions d.d_compactions;
    Obs.Counter.add c_minor_words (int_of_float d.d_minor_words);
    Obs.Counter.add c_promoted_words (int_of_float d.d_promoted_words);
    Obs.Counter.add c_major_words (int_of_float d.d_major_words);
    Obs.Gauge.set g_heap_words (float_of_int cur.Gc.heap_words);
    Obs.Gauge.set g_top_heap_words (float_of_int cur.Gc.top_heap_words);
    Obs.Gauge.set g_space_overhead (float_of_int (Gc.get ()).Gc.space_overhead);
    if dt_s > 1e-6 then Obs.Gauge.set g_alloc_rate (alloc_mb d /. dt_s);
    Atomic.set tick_us now;
    d
  end

(* One end-of-major-cycle hook per process. An alarm lives as long as
   the domain that created it, so when that domain exits the slot frees
   up and the next [install_alarm] call, from any domain, installs a
   new one. *)
let alarm_installed = Atomic.make false

let install_alarm () =
  if Atomic.compare_and_set alarm_installed false true then begin
    Domain.at_exit (fun () -> Atomic.set alarm_installed false);
    ignore
      (Gc.create_alarm (fun () ->
           if Obs.metrics_enabled () then begin
             Obs.Counter.incr c_major_cycles;
             let now = Obs.now_us () in
             let stall = now -. Atomic.get tick_us in
             if stall >= 0.0 && stall <= stale_tick_us then H.observe h_major_pause stall;
             Atomic.set tick_us now
           end))
  end
