(* Words allocated by the calling domain. [Gc.minor_words] alone misses
   every block too large for the minor heap (allocated straight into
   the major heap), so the total is minor + major - promoted: promoted
   words are counted in both of the other two. Measure with no other
   domain allocating, since the runtime's counters are not strictly
   per-domain. *)

let words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let kb_of_words w = w *. float_of_int (Sys.word_size / 8) /. 1024.

(* [measure f] runs [f] and returns its result with the kilobytes it
   allocated. *)
let measure f =
  let w0 = words () in
  let r = f () in
  let w1 = words () in
  (r, kb_of_words (w1 -. w0))
