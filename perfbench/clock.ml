(* Seconds on the monotonic clock, at nanosecond resolution: a
   single-block decode takes a few microseconds, below what
   [Unix.gettimeofday] can resolve. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9
