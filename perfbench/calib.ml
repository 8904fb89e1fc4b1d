(* Host speed. The shared host this benchmark runs on changes speed by
   tens of percent over minutes (other tenants, frequency), far more
   than the program changes between two commits. So each run also times
   a fixed calibration kernel at intervals through its measured work,
   and every speed metric is scaled to the speed of a reference host:
   a time is multiplied by [reference /. median kernel time], a rate
   divided by it. The raw figures are kept in the report.

   The kernel depends on the OCaml runtime and the host, not on the
   program's code, so a change to the code moves the scaled figures as
   it moves the raw ones. One coupling remains and is stated here
   rather than hidden: the minor collections of the allocation part
   stop every domain the driver has, so a change to how many domains
   the program keeps alive (lib/par's pool) moves the kernel too; read
   such a change on the report's unscaled figures.

   Its four parts load what the codecs load: random reads over a buffer
   larger than the core's caches, integer and table work in cache, an
   order-1 context-count model writing into an output buffer, and
   short-lived allocation.
   Every block the last part allocates is dead before the next one is
   made, so its minor collections promote nothing and the major heap,
   whatever the program left in it, is never touched; what it times is
   the allocation and the minor collections themselves, which in OCaml
   5 stop every domain and so wait on the host's scheduling of all of
   them, as the codecs' own collections do.

   Two slowdowns come out of the kernel. The whole kernel scales every
   speed metric but one kind: single-block decodes, a few microseconds
   of dependent reads each, follow the random-read part alone. *)

type buffers = { table : int array; small : Bytes.t; big : Bytes.t; counts : int array }

let buffers () =
  {
    table = Array.init 65536 (fun i -> (i * 2654435761) land 0xffff);
    small = Bytes.make 65536 'a';
    big = Bytes.make (8 * 1024 * 1024) 'b';
    counts = Array.make 65536 1;
  }

let table_work b n =
  let x = ref 1 and acc = ref 0 in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get b.table (!x land 0xffff) in
    x := ((!x * 1103515245) + 12345 + v) land 0x3fffffff;
    if v land 3 = 0 then Bytes.unsafe_set b.small (i land 0xffff) (Char.unsafe_chr (v land 255))
    else acc := !acc + Char.code (Bytes.unsafe_get b.small ((v + i) land 0xffff))
  done;
  !acc

let memory_work b n =
  let mask = Bytes.length b.big - 1 in
  let x = ref 7 and acc = ref 0 in
  for _ = 1 to n do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    acc := !acc + Char.code (Bytes.unsafe_get b.big (!x land mask))
  done;
  !acc

(* Counts reset on every call, so each timing does the same work. *)
let model_work b n =
  Array.fill b.counts 0 (Array.length b.counts) 1;
  let x = ref 12345 and prev = ref 0 and acc = ref 0 in
  for i = 0 to n - 1 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let r = (!x lsr 10) land 255 in
    let c = r land (r lsr 2) land if !prev > 128 then 0xff else 0x3f in
    let idx = (!prev lsl 8) lor c in
    let k = Array.unsafe_get b.counts idx in
    Array.unsafe_set b.counts idx (k + 1);
    acc := ((!acc * 31) + k) land 0xffffff;
    Bytes.unsafe_set b.small (i land 0xffff) (Char.unsafe_chr ((k + c) land 255));
    prev := c
  done;
  !acc

(* Eight words a step (a cons cell, a pair and a boxed float), each
   step's blocks dead by the next. *)
let alloc_work n =
  let acc = ref 0 in
  for i = 1 to n do
    let c = Sys.opaque_identity [ (i, float_of_int i) ] in
    acc := !acc + List.length c
  done;
  !acc

(* One timing of the kernel, in seconds: the whole of it, and its
   random-read part. *)
type timing = { whole : float; memory : float }

let kernel b =
  let t0 = Clock.now () in
  ignore (Sys.opaque_identity (memory_work b 500_000));
  let t1 = Clock.now () in
  ignore (Sys.opaque_identity (table_work b 2_000_000));
  ignore (Sys.opaque_identity (model_work b 800_000));
  ignore (Sys.opaque_identity (alloc_work 500_000));
  { whole = Clock.now () -. t0; memory = t1 -. t0 }

(* The kernel's median times inside this benchmark's runs on the
   reference host, a 2-core Intel Xeon VM, so that a typical run there
   scales by about 1. *)
let reference = { whole = 0.024; memory = 0.006 }

(* A run's calibration: timings taken at least [interval_s] apart, from
   the points where the run's timed work allows a pause. *)
type t = { bufs : buffers; mutable samples : timing list; mutable last : float }

let interval_s = 1.0

let create () = { bufs = buffers (); samples = []; last = neg_infinity }

let sample t =
  t.samples <- kernel t.bufs :: t.samples;
  t.last <- Clock.now ()

let tick t = if Clock.now () -. t.last >= interval_s then sample t

let median_of t part = Stats.median (Array.of_list (List.map part t.samples))

(* How much slower than the reference host this run's host was, by the
   whole kernel and by its random reads: above 1, slower. *)
type slowdowns = { compute : float; reads : float }

let slowdowns t =
  {
    compute = median_of t (fun s -> s.whole) /. reference.whole;
    reads = median_of t (fun s -> s.memory) /. reference.memory;
  }

let line t =
  let s = slowdowns t in
  Printf.sprintf
    "host speed: calibration kernel median %.3f ms (random reads %.3f ms) over %d samples, reference %.3f (%.3f) ms: slowdown %.3f, reads %.3f"
    (1e3 *. median_of t (fun s -> s.whole))
    (1e3 *. median_of t (fun s -> s.memory))
    (List.length t.samples) (1e3 *. reference.whole) (1e3 *. reference.memory) s.compute s.reads
