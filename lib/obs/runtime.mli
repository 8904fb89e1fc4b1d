(** Domain-safe OCaml runtime telemetry: process-wide [Gc.quick_stat]
    delta sampling, a major-GC pause estimator fed by
    [Gc.create_alarm] end-of-cycle hooks, and allocation-rate gauges.

    Registry surface (all rendered on [/metrics] via {!Openmetrics}):

    - counters [runtime.gc.minor_collections] / [.major_collections] /
      [.compactions] / [.minor_words] / [.promoted_words] /
      [.major_words] / [.major_cycles] — the whole process's growth,
      booked once however many domains call {!sample} (on OCaml 5.1
      [Gc.quick_stat] already sums every domain);
    - gauges [runtime.gc.heap_words] / [.top_heap_words] /
      [.space_overhead], [runtime.alloc_rate_mbps] (MB/s the process
      allocated between the last two samples) and
      [runtime.domains] (domains that have sampled at least once);
    - histogram [runtime.gc.major_pause_us] — estimated mutator stall
      at the end of each major cycle.

    The pause estimate is a hiccup-meter bound, not a measured slice:
    the alarm fires at the end of a major cycle and observes
    [now - last tick], where {!tick} (called at serve request-stage
    boundaries, on any domain) stamps "a mutator was running here".
    Estimates older than ~250 ms of tick silence are discarded as
    idle-process artifacts rather than booked as pauses.

    Every entry point is behind the registry's one-atomic-load guard:
    with {!Obs.set_metrics} off, all of these return immediately and
    observe nothing. *)

type delta = {
  d_minor_collections : int;
  d_major_collections : int;
  d_compactions : int;
  d_minor_words : float;  (** words allocated on the minor heap *)
  d_promoted_words : float;  (** words that survived into the major heap *)
  d_major_words : float;  (** words allocated directly on the major heap *)
}

val delta_zero : delta

val delta_between : Gc.stat -> Gc.stat -> delta
(** Componentwise [b - a], clamped at zero. [d_major_words] excludes
    promoted words, so [d_minor_words + d_major_words] is the total the
    mutator allocated between the two readings. *)

val alloc_mb : delta -> float
(** Megabytes allocated: [(minor + major) words * word size]. *)

val probe : unit -> Gc.stat option
(** [Some (Gc.quick_stat ())] when metrics are enabled, else [None] —
    the cheap per-stage boundary reading. It is process-wide: a delta
    between two probes includes what every domain did meanwhile (other
    domains' counts as of their last minor collection). *)

val stage_delta : Gc.stat option -> Gc.stat option -> delta
(** {!delta_between} over two {!probe} results; {!delta_zero} when
    either side was taken with metrics off. *)

val tick : unit -> unit
(** Stamp "a mutator is running now" — feeds the pause estimator. Call at request-stage boundaries; one atomic load plus a
    clock read when metrics are on, one atomic load when off. *)

val sample : unit -> delta
(** Fold the process's GC growth since the previous [sample] (by any
    domain) into the global counters, refresh the heap/allocation
    gauges, and return the delta. Deltas are non-negative, the counters
    are monotone, and concurrent samplers split the growth between them
    rather than each booking all of it. *)

val install_alarm : unit -> unit
(** Install the process's end-of-major-cycle hook (counts
    [runtime.gc.major_cycles], observes [runtime.gc.major_pause_us]).
    Idempotent per process: OCaml 5 runs an alarm on every domain that
    created one, so a second hook would count each cycle twice. The
    hook lives as long as the domain that installed it; call this from
    a long-lived domain (the daemon's loop domain does). *)

val major_pause_histogram_name : string
(** ["runtime.gc.major_pause_us"] — shared with consumers that read it
    back out of snapshots. *)
