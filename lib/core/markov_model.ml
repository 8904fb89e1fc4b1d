module Coder = Ccomp_arith.Binary_coder
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader

type t = {
  widths : int array;
  context_bits : int;
  quantized : bool;
  (* probs.(stream).(ctx).(node), node in [1, 2^w - 1]; slot 0 unused.
     Pruned nodes hold their parent's (inherited) value. *)
  probs : int array array array;
  (* retained.(stream).(ctx).(node): the node stores its own probability;
     all-true for unpruned models. *)
  retained : bool array array array;
  (* Flattened copy of [probs] for the decode hot loop: the tree for
     (stream, ctx) occupies [flat] at offset
     [stream_base.(stream) + ctx lsl widths.(stream)], heap-indexed as
     usual, so the per-bit lookup is one array load instead of three. *)
  flat : int array;
  stream_base : int array;
}

(* Offsets of each stream's first tree in the flat layout: the tree for
   (stream, ctx) starts at [base.(stream) + ctx lsl widths.(stream)].
   Returns the bases and the total length. *)
let flat_layout ~widths ~context_bits =
  let contexts = 1 lsl context_bits in
  let stream_base = Array.make (Array.length widths) 0 in
  let total = ref 0 in
  Array.iteri
    (fun s w ->
      stream_base.(s) <- !total;
      total := !total + (contexts lsl w))
    widths;
  (stream_base, !total)

let flatten ~widths ~context_bits probs =
  let stream_base, total = flat_layout ~widths ~context_bits in
  let flat = Array.make total 0 in
  Array.iteri
    (fun s per_ctx ->
      Array.iteri
        (fun c nodes ->
          Array.blit nodes 0 flat (stream_base.(s) + (c lsl widths.(s))) (Array.length nodes))
        per_ctx)
    probs;
  (flat, stream_base)

let make ~widths ~context_bits ~quantized ~probs ~retained =
  let flat, stream_base = flatten ~widths ~context_bits probs in
  { widths; context_bits; quantized; probs; retained; flat; stream_base }

let check_params ~widths ~context_bits =
  if Array.length widths = 0 then invalid_arg "Markov_model: no streams";
  Array.iter
    (fun w -> if w < 1 || w > 16 then invalid_arg "Markov_model: stream width out of [1,16]")
    widths;
  if context_bits < 0 || context_bits > 8 then
    invalid_arg "Markov_model: context_bits out of [0,8]"

module Trainer = struct
  (* Counts live in the model's flat layout (see [flat_layout]), so a
     caller walking words can bump them by one computed index per bit. *)
  type t = {
    widths : int array;
    context_bits : int;
    stream_base : int array;
    zeros : int array;
    totals : int array;
  }

  let create ~widths ~context_bits =
    check_params ~widths ~context_bits;
    let stream_base, total = flat_layout ~widths ~context_bits in
    {
      widths = Array.copy widths;
      context_bits;
      stream_base;
      zeros = Array.make total 0;
      totals = Array.make total 0;
    }

  let tree_offset t ~stream ~ctx = t.stream_base.(stream) + (ctx lsl t.widths.(stream))

  let note_at t i bit =
    Array.unsafe_set t.totals i (Array.unsafe_get t.totals i + 1);
    if bit = 0 then Array.unsafe_set t.zeros i (Array.unsafe_get t.zeros i + 1)

  let note t ~stream ~ctx ~node bit =
    if node < 0 || node >= 1 lsl t.widths.(stream) || ctx < 0 || ctx >= 1 lsl t.context_bits then
      invalid_arg "Markov_model.Trainer.note: position out of range";
    note_at t (tree_offset t ~stream ~ctx + node) bit

  let zeros t i = t.zeros.(i)

  let total t i = t.totals.(i)

  let finalize ?(quantize = false) ?(prune_below = 0) t =
    let prob z tot =
      let p = Coder.prob_of_counts ~zeros:z ~ones:(tot - z) in
      if quantize then Coder.quantize_pow2 p else p
    in
    let contexts = 1 lsl t.context_bits in
    let per_tree f =
      Array.mapi
        (fun s w ->
          Array.init contexts (fun c -> Array.init (1 lsl w) (f (tree_offset t ~stream:s ~ctx:c))))
        t.widths
    in
    let probs = per_tree (fun off node -> prob t.zeros.(off + node) t.totals.(off + node)) in
    let retained =
      per_tree (fun off node -> node = 1 || (node > 1 && t.totals.(off + node) >= prune_below))
    in
    (* back off: a pruned node inherits its parent's prediction *)
    Array.iteri
      (fun s per_ctx ->
        Array.iteri
          (fun c nodes ->
            for node = 2 to Array.length nodes - 1 do
              if not retained.(s).(c).(node) then nodes.(node) <- nodes.(node / 2)
            done)
          per_ctx)
      probs;
    make ~widths:(Array.copy t.widths) ~context_bits:t.context_bits ~quantized:quantize ~probs
      ~retained
end

let widths t = Array.copy t.widths

let context_bits t = t.context_bits

let contexts t = 1 lsl t.context_bits

let quantized t = t.quantized

let p0 t ~stream ~ctx ~node = t.probs.(stream).(ctx).(node)

let flat_probs t = t.flat

let tree_offset t ~stream ~ctx = t.stream_base.(stream) + (ctx lsl t.widths.(stream))

let probability_count t =
  let per_word = Array.fold_left (fun acc w -> acc + (1 lsl w) - 1) 0 t.widths in
  per_word * contexts t

let retained_count t =
  Array.fold_left
    (fun acc per_ctx ->
      Array.fold_left
        (fun acc nodes ->
          let n = ref acc in
          for node = 1 to Array.length nodes - 1 do
            if nodes.(node) then incr n
          done;
          !n)
        acc per_ctx)
    0 t.retained

let pruned t = retained_count t < probability_count t

(* Quantised probabilities are (side, shift): p_lps = scale >> shift with
   side saying whether the 0 symbol is the less probable one. *)
let quantized_code p0 =
  let side = if p0 <= Coder.scale / 2 then 0 else 1 in
  let lps = if side = 0 then p0 else Coder.scale - p0 in
  let rec shift_of k = if Coder.scale lsr k <= lps || k = 15 then k else shift_of (k + 1) in
  (side, shift_of 1)

let of_quantized_code (side, shift) =
  let lps = max 1 (Coder.scale lsr shift) in
  if side = 0 then lps else Coder.scale - lps

let serialize t =
  let w = Bit_writer.create () in
  let is_pruned = pruned t in
  Bit_writer.put_byte w (Array.length t.widths);
  Bit_writer.put_byte w t.context_bits;
  Bit_writer.put_byte w ((if t.quantized then 1 else 0) lor (if is_pruned then 2 else 0));
  Array.iter (fun width -> Bit_writer.put_byte w width) t.widths;
  let put_prob v =
    if t.quantized then begin
      let side, shift = quantized_code v in
      Bit_writer.put_bit w side;
      Bit_writer.put_bits w ~value:shift ~width:4
    end
    else Bit_writer.put_bits w ~value:v ~width:Coder.scale_bits
  in
  Array.iteri
    (fun s per_ctx ->
      Array.iteri
        (fun c nodes ->
          for node = 1 to Array.length nodes - 1 do
            (* the root (node 1) is always retained and carries no flag *)
            if is_pruned && node > 1 then
              Bit_writer.put_bit w (if t.retained.(s).(c).(node) then 1 else 0);
            if t.retained.(s).(c).(node) then put_prob nodes.(node)
          done)
        per_ctx)
    t.probs;
  Bit_writer.align_byte w;
  Bit_writer.contents w

let deserialize s ~pos =
  let r = Bit_reader.create ~start_bit:(8 * pos) s in
  let n_streams = Bit_reader.get_byte r in
  let context_bits = Bit_reader.get_byte r in
  let flags = Bit_reader.get_byte r in
  let quantized = flags land 1 = 1 in
  let is_pruned = flags land 2 = 2 in
  let widths = Array.init n_streams (fun _ -> Bit_reader.get_byte r) in
  check_params ~widths ~context_bits;
  let contexts = 1 lsl context_bits in
  let get_prob () =
    if quantized then begin
      let side = Bit_reader.get_bit r in
      let shift = Bit_reader.get_bits r 4 in
      of_quantized_code (side, shift)
    end
    else begin
      let v = Bit_reader.get_bits r Coder.scale_bits in
      (* p0 = 0 never leaves the trainer and would break the coder's
         bound >= 1 invariant mid-decode; reject it at the boundary. *)
      if v = 0 then invalid_arg "Markov_model.deserialize: zero probability";
      v
    end
  in
  let retained =
    Array.map (fun width -> Array.init contexts (fun _ -> Array.make (1 lsl width) true)) widths
  in
  let probs =
    Array.mapi
      (fun s width ->
        Array.init contexts (fun c ->
            let nodes = Array.make (1 lsl width) 0 in
            for node = 1 to (1 lsl width) - 1 do
              let keep = (not is_pruned) || node = 1 || Bit_reader.get_bit r = 1 in
              retained.(s).(c).(node) <- keep;
              if keep then nodes.(node) <- get_prob () else nodes.(node) <- nodes.(node / 2)
            done;
            nodes))
      widths
  in
  if Bit_reader.overrun r > 0 then invalid_arg "Markov_model.deserialize: truncated input";
  Bit_reader.align_byte r;
  (make ~widths ~context_bits ~quantized ~probs ~retained, Bit_reader.pos r / 8)

let storage_bytes t = String.length (serialize t)
