module Coder = Ccomp_arith.Binary_coder
module Obs = Ccomp_obs.Obs

(* Observability: per-block compress/decompress latency and size
   metrics, and the per-stream bits-in/bits-out split behind the paper's
   Tables 1-3 (each stream's share of the instruction word vs the
   arithmetic-coded bits it costs under the trained model). All
   observation is guarded by [Obs.metrics_enabled] and never touches the
   coded bits: output is byte-identical with metrics on or off. *)
let m_c_blocks = Obs.Counter.make "samc.compress.blocks"

let m_c_bytes_in = Obs.Counter.make "samc.compress.bytes_in"

let m_c_bytes_out = Obs.Counter.make "samc.compress.bytes_out"

let m_c_block_us = Obs.Histogram.make "samc.compress.block_us"

let m_c_block_ratio = Obs.Histogram.make "samc.compress.block_ratio"

let m_d_blocks = Obs.Counter.make "samc.decompress.blocks"

let m_d_bytes_in = Obs.Counter.make "samc.decompress.bytes_in"

let m_d_bytes_out = Obs.Counter.make "samc.decompress.bytes_out"

let m_d_block_us = Obs.Histogram.make "samc.decompress.block_us"

type config = {
  word_bits : int;
  streams : Stream_split.t;
  context_bits : int;
  quantize : bool;
  prune_below : int;
  block_size : int;
}

let mips_config ?(block_size = 32) ?(context_bits = 2) ?(quantize = false) ?(prune_below = 0)
    ?streams () =
  let streams =
    match streams with Some s -> s | None -> Stream_split.consecutive ~word_bits:32 ~streams:4
  in
  { word_bits = 32; streams; context_bits; quantize; prune_below; block_size }

let byte_config ?(block_size = 32) ?(context_bits = 2) ?(quantize = false) ?(prune_below = 0) () =
  {
    word_bits = 8;
    streams = Stream_split.consecutive ~word_bits:8 ~streams:1;
    context_bits;
    quantize;
    prune_below;
    block_size;
  }

let validate_config c =
  if c.word_bits mod 8 <> 0 || c.word_bits <= 0 || c.word_bits > 64 then
    Error "word_bits must be a positive multiple of 8, at most 64"
  else if c.block_size <= 0 || c.block_size * 8 mod c.word_bits <> 0 then
    Error "block_size must hold a whole number of words"
  else if c.prune_below < 0 then Error "prune_below must be non-negative"
  else if Array.exists (fun s -> Array.length s > 16) c.streams then
    Error "streams wider than 16 bits need oversized trees"
  else
    match Stream_split.validate ~word_bits:c.word_bits c.streams with
    | Ok () -> Ok ()
    | Error e -> Error e

type compressed = {
  config : config;
  model : Markov_model.t;
  blocks : string array;
  original_size : int;
}

let word_bytes c = c.word_bits / 8

let words_per_block c = c.block_size * 8 / c.word_bits

let block_count c ~code_bytes =
  let wb = word_bytes c in
  let words = code_bytes / wb in
  let wpb = words_per_block c in
  (words + wpb - 1) / wpb

let get_word c code word_index =
  let wb = word_bytes c in
  let base = word_index * wb in
  let acc = ref 0 in
  for i = 0 to wb - 1 do
    acc := (!acc lsl 8) lor Char.code code.[base + i]
  done;
  !acc

(* Count every coded bit of [code] at its tree position: the walk of
   [encode_block_with] (context reset at each block start), bumping the
   trainer's flat counts instead of coding. *)
let count_bits c code =
  let widths = Stream_split.widths c.streams in
  let trainer = Markov_model.Trainer.create ~widths ~context_bits:c.context_bits in
  let n_streams = Array.length widths in
  let base =
    Array.init n_streams (fun s -> Markov_model.Trainer.tree_offset trainer ~stream:s ~ctx:0)
  in
  let ctx_mask = (1 lsl c.context_bits) - 1 in
  let words = String.length code / word_bytes c in
  let wpb = words_per_block c in
  let ctx = ref 0 in
  for wi = 0 to words - 1 do
    if wi mod wpb = 0 then ctx := 0;
    let word = get_word c code wi in
    for s = 0 to n_streams - 1 do
      let positions = Array.unsafe_get c.streams s in
      let w = Array.unsafe_get widths s in
      let tree = Array.unsafe_get base s + (!ctx lsl w) in
      let node = ref 1 in
      for k = 0 to w - 1 do
        let bit = (word lsr (c.word_bits - 1 - Array.unsafe_get positions k)) land 1 in
        Markov_model.Trainer.note_at trainer (tree + !node) bit;
        node := (2 * !node) + bit
      done;
      ctx := (!node - (1 lsl w)) land ctx_mask
    done
  done;
  trainer

(* Per-stream cost of the counted bits under [model]: bits_in counts the
   stream's raw bits, bits_out the ideal arithmetic-code length
   [sum -log2 p(bit)] — the per-stream in/out split of Tables 1-3. A
   tree position that saw z zeros out of t bits under prediction p0
   costs [z * -log2 p0 + (t - z) * -log2 (1 - p0)], so the sum runs over
   tree positions (streams x contexts x 2^w), not over coded bits. *)
let costs_of_counts c trainer model =
  let n_streams = Array.length c.streams in
  let bits_in = Array.make n_streams 0 in
  let bits_out = Array.make n_streams 0.0 in
  let flat = Markov_model.flat_probs model in
  let fscale = float_of_int Coder.scale in
  let cost p = -.Float.log2 (float_of_int p /. fscale) in
  for s = 0 to n_streams - 1 do
    let w = Array.length c.streams.(s) in
    for ctx = 0 to (1 lsl c.context_bits) - 1 do
      let counts = Markov_model.Trainer.tree_offset trainer ~stream:s ~ctx in
      let probs = Markov_model.tree_offset model ~stream:s ~ctx in
      for node = 1 to (1 lsl w) - 1 do
        let t = Markov_model.Trainer.total trainer (counts + node) in
        if t > 0 then begin
          let z = Markov_model.Trainer.zeros trainer (counts + node) in
          let p0 = flat.(probs + node) in
          bits_in.(s) <- bits_in.(s) + t;
          bits_out.(s) <-
            bits_out.(s)
            +. (float_of_int z *. cost p0)
            +. (float_of_int (t - z) *. cost (Coder.scale - p0))
        end
      done
    done
  done;
  (bits_in, bits_out)

let stream_costs c model code =
  if
    Markov_model.widths model <> Stream_split.widths c.streams
    || Markov_model.context_bits model <> c.context_bits
  then invalid_arg "Samc.stream_costs: model does not match the configuration";
  costs_of_counts c (count_bits c code) model

(* The samc.streamN.* metrics, registered once per stream index on first
   use (registration formats names and takes the registry lock). Two
   domains growing the table at once build the same handles, since
   [make] is get-or-create, so either array may win. *)
type stream_metrics = { bits_in : Obs.Counter.t; bits_out : Obs.Counter.t; ratio : Obs.Gauge.t }

let stream_metrics = Atomic.make [||]

let stream_metrics_upto n =
  let have = Atomic.get stream_metrics in
  if Array.length have >= n then have
  else begin
    let grown =
      Array.init n (fun s ->
          if s < Array.length have then have.(s)
          else
            {
              bits_in = Obs.Counter.make (Printf.sprintf "samc.stream%d.bits_in" s);
              bits_out = Obs.Counter.make (Printf.sprintf "samc.stream%d.bits_out" s);
              ratio = Obs.Gauge.make (Printf.sprintf "samc.stream%d.ratio" s);
            })
    in
    Atomic.set stream_metrics grown;
    grown
  end

(* Publish the per-stream costs of the training counts under the trained
   model (metrics only; the coded bits never depend on it). The ideal
   length differs from the shipped size only by per-block coder flush
   rounding. *)
let note_stream_costs c trainer model =
  let bits_in, bits_out = costs_of_counts c trainer model in
  let ms = stream_metrics_upto (Array.length bits_in) in
  for s = 0 to Array.length bits_in - 1 do
    Obs.Counter.add ms.(s).bits_in bits_in.(s);
    Obs.Counter.add ms.(s).bits_out (int_of_float (Float.round bits_out.(s)));
    if bits_in.(s) > 0 then Obs.Gauge.set ms.(s).ratio (bits_out.(s) /. float_of_int bits_in.(s))
  done

(* Decode hot loop: the model is read through its flat probability array
   (one load per bit instead of three pointer chases), and each stream's
   bits are decoded by one {!Coder.Decoder.decode_tree} descent — the
   interval registers stay local for the whole stream instead of a call
   per bit, and the stream's value falls out of the final heap index.
   The per-image tables (tree offsets, shift translations) are hoisted
   into a plan so the full-image path builds them once, not per 32-byte
   block. *)
type decode_plan = {
  p_wb : int;
  p_ctx_mask : int;
  p_flat : int array;
  p_base : int array;
  p_widths : int array;
  p_shifts : int array array;
  p_low_shift : int array;  (** single-shift placement, -1 = scatter *)
}

let decode_plan c model =
  let n_streams = Array.length c.streams in
  let shifts = Array.map (Array.map (fun pos -> c.word_bits - 1 - pos)) c.streams in
  (* A stream whose positions are consecutive (every default config)
     lands in the word with a single shift of its value; [-1] marks the
     general scatter case. *)
  let low_shift =
    Array.map
      (fun shift_s ->
        let w = Array.length shift_s in
        let contiguous = ref (w > 0) in
        for k = 1 to w - 1 do
          if shift_s.(k) <> shift_s.(0) - k then contiguous := false
        done;
        if !contiguous then shift_s.(w - 1) else -1)
      shifts
  in
  {
    p_wb = word_bytes c;
    p_ctx_mask = (1 lsl c.context_bits) - 1;
    p_flat = Markov_model.flat_probs model;
    p_base = Array.init n_streams (fun s -> Markov_model.tree_offset model ~stream:s ~ctx:0);
    p_widths = Array.map Array.length c.streams;
    p_shifts = shifts;
    p_low_shift = low_shift;
  }

(* Encode one block through a caller-owned encoder with the per-image
   tables hoisted into [p] (the decode plan, shared by both directions) —
   the parallel path reuses one encoder per domain and builds the tables
   once per image, not per 32-byte block. Each stream's bits are coded in
   one {!Coder.Encoder.encode_tree} descent. *)
let encode_block_with encoder c p code ~first_word ~n_words =
  Coder.Encoder.reset encoder;
  let ctx = ref 0 in
  for wi = first_word to first_word + n_words - 1 do
    let word = get_word c code wi in
    for s = 0 to Array.length p.p_widths - 1 do
      let w = Array.unsafe_get p.p_widths s in
      let lo = Array.unsafe_get p.p_low_shift s in
      let value =
        if lo >= 0 then (word lsr lo) land ((1 lsl w) - 1)
        else begin
          let shift_s = Array.unsafe_get p.p_shifts s in
          let v = ref 0 in
          for k = 0 to w - 1 do
            v := (!v lsl 1) lor ((word lsr Array.unsafe_get shift_s k) land 1)
          done;
          !v
        end
      in
      let tree = Array.unsafe_get p.p_base s + (!ctx lsl w) in
      Coder.Encoder.encode_tree encoder p.p_flat ~tree ~width:w value;
      ctx := value land p.p_ctx_mask
    done
  done;
  Coder.Encoder.finish encoder

let compress ?(jobs = 1) c code =
  Obs.with_span ~cat:"samc" "samc.compress" @@ fun () ->
  (match validate_config c with Ok () -> () | Error e -> invalid_arg ("Samc.compress: " ^ e));
  if String.length code mod word_bytes c <> 0 then
    invalid_arg "Samc.compress: code size is not a multiple of the word size";
  let trainer, model =
    Obs.with_span ~cat:"samc" "samc.train" (fun () ->
        let trainer = count_bits c code in
        let model =
          Markov_model.Trainer.finalize ~quantize:c.quantize ~prune_below:c.prune_below trainer
        in
        (trainer, model))
  in
  let instrument = Obs.metrics_enabled () in
  if instrument then
    Obs.with_span ~cat:"samc" "samc.costs" (fun () -> note_stream_costs c trainer model);
  let words = String.length code / word_bytes c in
  let wpb = words_per_block c in
  let wb = word_bytes c in
  let nblocks = block_count c ~code_bytes:(String.length code) in
  (* Blocks restart the coder and context, so each encodes independently;
     the pool reassembles in block order, keeping the output
     byte-identical to a serial run. The per-image tables are hoisted
     out of the block loop and each domain reuses one encoder. *)
  let plan = decode_plan c model in
  (* Each block lands in its own slot of an array made with a static
     placeholder: building the array from the fresh payloads instead
     (as an [init]/[map] does) would force a minor collection per call,
     since the runtime promotes a young initial value of a large array. *)
  let blocks = Array.make nblocks "" in
  Obs.with_span ~cat:"samc" "samc.encode" (fun () ->
      Ccomp_par.Pool.iter_n ~jobs nblocks
        ~local:(fun () -> Coder.Encoder.create ())
        (fun encoder b ->
          let first_word = b * wpb in
          let n_words = min wpb (words - first_word) in
          if not instrument then
            blocks.(b) <- encode_block_with encoder c plan code ~first_word ~n_words
          else begin
            let t0 = Obs.now_us () in
            let blk = encode_block_with encoder c plan code ~first_word ~n_words in
            Obs.Histogram.observe m_c_block_us (Obs.now_us () -. t0);
            Obs.Counter.incr m_c_blocks;
            Obs.Counter.add m_c_bytes_in (n_words * wb);
            Obs.Counter.add m_c_bytes_out (String.length blk);
            Obs.Histogram.observe m_c_block_ratio
              (float_of_int (String.length blk) /. float_of_int (n_words * wb));
            blocks.(b) <- blk
          end));
  { config = c; model; blocks; original_size = String.length code }

(* Decode one block's words into [out] starting at byte [pos] — the
   zero-copy kernel: the full-image path points every block at its slice
   of one shared buffer instead of allocating per-block strings and
   concatenating. [pos] must leave room for [n_words] words. *)
let decompress_block_planned_into p out ~pos ~n_words data =
  let wb = p.p_wb in
  let decoder = Coder.Decoder.create data in
  let flat = p.p_flat in
  let n_streams = Array.length p.p_widths in
  let ctx_mask = p.p_ctx_mask in
  let ctx = ref 0 in
  for wi = 0 to n_words - 1 do
    let word = ref 0 in
    for s = 0 to n_streams - 1 do
      let w = Array.unsafe_get p.p_widths s in
      let tree = Array.unsafe_get p.p_base s + (!ctx lsl w) in
      let node = Coder.Decoder.decode_tree decoder flat ~tree ~width:w in
      let value = node - (1 lsl w) in
      let lo = Array.unsafe_get p.p_low_shift s in
      if lo >= 0 then word := !word lor (value lsl lo)
      else begin
        let shift_s = Array.unsafe_get p.p_shifts s in
        for k = 0 to w - 1 do
          if (value lsr (w - 1 - k)) land 1 = 1 then
            word := !word lor (1 lsl Array.unsafe_get shift_s k)
        done
      end;
      ctx := value land ctx_mask
    done;
    let word = !word in
    for j = 0 to wb - 1 do
      Bytes.unsafe_set out (pos + (wi * wb) + j)
        (Char.unsafe_chr ((word lsr (8 * (wb - 1 - j))) land 0xff))
    done
  done

let decompress_block_planned p ~original_bytes data =
  let wb = p.p_wb in
  if original_bytes mod wb <> 0 then
    invalid_arg "Samc.decompress_block: size not a multiple of the word size";
  let out = Bytes.create original_bytes in
  decompress_block_planned_into p out ~pos:0 ~n_words:(original_bytes / wb) data;
  Bytes.unsafe_to_string out

let decompress_block c model ~original_bytes data =
  decompress_block_planned (decode_plan c model) ~original_bytes data

(* The original pointer-chasing kernel, kept as the reference
   implementation: equivalence tests pin the fast path to it, and the
   benchmark harness reports both so the LUT/flat speedup stays
   measured. *)
let decompress_block_ref c model ~original_bytes data =
  let wb = word_bytes c in
  if original_bytes mod wb <> 0 then
    invalid_arg "Samc.decompress_block_ref: size not a multiple of the word size";
  let n_words = original_bytes / wb in
  let decoder = Coder.Decoder.create data in
  let out = Bytes.create original_bytes in
  let ctx_mask = (1 lsl c.context_bits) - 1 in
  let ctx = ref 0 in
  for wi = 0 to n_words - 1 do
    let word = ref 0 in
    Array.iteri
      (fun s positions ->
        let node = ref 1 in
        let value = ref 0 in
        Array.iter
          (fun pos ->
            let p0 = Markov_model.p0 model ~stream:s ~ctx:!ctx ~node:!node in
            let bit = Coder.Decoder.decode decoder ~p0 in
            node := (2 * !node) + bit;
            value := (!value lsl 1) lor bit;
            if bit = 1 then word := !word lor (1 lsl (c.word_bits - 1 - pos)))
          positions;
        ctx := !value land ctx_mask)
      c.streams;
    for j = 0 to wb - 1 do
      Bytes.set out ((wi * wb) + j) (Char.chr ((!word lsr (8 * (wb - 1 - j))) land 0xff))
    done
  done;
  Bytes.to_string out

let decompress_block_parallel c model ~original_bytes data =
  let wb = word_bytes c in
  if original_bytes mod wb <> 0 then
    invalid_arg "Samc.decompress_block_parallel: size not a multiple of the word size";
  let n_words = original_bytes / wb in
  let engine = Ccomp_arith.Nibble_decoder.create data in
  let out = Bytes.create original_bytes in
  let ctx_mask = (1 lsl c.context_bits) - 1 in
  let ctx = ref 0 in
  for wi = 0 to n_words - 1 do
    let word = ref 0 in
    Array.iteri
      (fun s positions ->
        let width = Array.length positions in
        let node = ref 1 in
        let value = ref 0 in
        let done_ = ref 0 in
        (* Fig. 5 decodes 4 bits per step; stream boundaries reset the
           tree walk, so steps never straddle a stream. *)
        while !done_ < width do
          let step = min 4 (width - !done_) in
          let base_node = !node in
          let p0 ~prefix ~width:w =
            (* probability memory addressed by already-decoded bits *)
            let node_for_prefix = (base_node lsl w) lor prefix in
            Markov_model.p0 model ~stream:s ~ctx:!ctx ~node:node_for_prefix
          in
          let bits = Ccomp_arith.Nibble_decoder.decode_bits engine ~n:step ~p0 in
          for k = step - 1 downto 0 do
            let bit = (bits lsr k) land 1 in
            let pos = positions.(!done_) in
            if bit = 1 then word := !word lor (1 lsl (c.word_bits - 1 - pos));
            value := (!value lsl 1) lor bit;
            incr done_
          done;
          node := (base_node lsl step) lor bits
        done;
        ctx := !value land ctx_mask)
      c.streams;
    for j = 0 to wb - 1 do
      Bytes.set out ((wi * wb) + j) (Char.chr ((!word lsr (8 * (wb - 1 - j))) land 0xff))
    done
  done;
  (Bytes.to_string out, Ccomp_arith.Nibble_decoder.midpoint_evaluations engine)

let decompress ?(jobs = 1) t =
  Obs.with_span ~cat:"samc" "samc.decompress" @@ fun () ->
  let c = t.config in
  let wpb = words_per_block c in
  let wb = word_bytes c in
  if t.original_size mod wb <> 0 then
    invalid_arg "Samc.decompress: size not a multiple of the word size";
  let words = t.original_size / wb in
  let plan = decode_plan c t.model in
  let instrument = Obs.metrics_enabled () in
  (* Every block decodes into its disjoint slice of one shared output
     buffer — no per-block strings, no final concat. *)
  let out = Bytes.create t.original_size in
  Ccomp_par.Pool.iteri_local ~jobs
    ~local:(fun () -> ())
    (fun () b data ->
      let n_words = min wpb (words - (b * wpb)) in
      let pos = b * wpb * wb in
      if not instrument then decompress_block_planned_into plan out ~pos ~n_words data
      else begin
        let t0 = Obs.now_us () in
        decompress_block_planned_into plan out ~pos ~n_words data;
        Obs.Histogram.observe m_d_block_us (Obs.now_us () -. t0);
        Obs.Counter.incr m_d_blocks;
        Obs.Counter.add m_d_bytes_in (String.length data);
        Obs.Counter.add m_d_bytes_out (n_words * wb)
      end)
    t.blocks;
  Bytes.unsafe_to_string out

let decompress_checked ?max_output t =
  Ccomp_util.Decode_error.protect ~section:"samc" (fun () ->
      (match max_output with
      | Some limit when t.original_size > limit ->
        Ccomp_util.Decode_error.fail
          (Length_overflow { section = "samc"; declared = t.original_size; limit })
      | Some _ | None -> ());
      decompress t)

let code_bytes t = Array.fold_left (fun acc b -> acc + String.length b) 0 t.blocks

let model_bytes t = Markov_model.storage_bytes t.model

let ratio t = float_of_int (code_bytes t) /. float_of_int t.original_size

let ratio_with_model t =
  float_of_int (code_bytes t + model_bytes t) /. float_of_int t.original_size

(* --- serialization --------------------------------------------------- *)

let add_u16 b v =
  assert (v >= 0 && v < 65536);
  Buffer.add_char b (Char.chr (v lsr 8));
  Buffer.add_char b (Char.chr (v land 0xff))

let add_u32 b v =
  assert (v >= 0 && v < 1 lsl 32);
  add_u16 b (v lsr 16);
  add_u16 b (v land 0xffff)

let serialize t =
  let c = t.config in
  let b = Buffer.create (code_bytes t + model_bytes t + 64) in
  Buffer.add_char b (Char.chr c.word_bits);
  Buffer.add_char b (Char.chr (Array.length c.streams));
  Array.iter
    (fun stream ->
      Buffer.add_char b (Char.chr (Array.length stream));
      Array.iter (fun pos -> Buffer.add_char b (Char.chr pos)) stream)
    c.streams;
  Buffer.add_char b (Char.chr c.context_bits);
  Buffer.add_char b (Char.chr (if c.quantize then 1 else 0));
  add_u16 b c.prune_below;
  add_u16 b c.block_size;
  add_u32 b t.original_size;
  let model = Markov_model.serialize t.model in
  add_u32 b (String.length model);
  Buffer.add_string b model;
  add_u32 b (Array.length t.blocks);
  Array.iter
    (fun blk ->
      add_u16 b (String.length blk);
      Buffer.add_string b blk)
    t.blocks;
  Buffer.contents b

let deserialize s ~pos =
  let p = ref pos in
  let fail () = invalid_arg "Samc.deserialize: truncated input" in
  let byte () =
    if !p >= String.length s then fail ();
    let v = Char.code s.[!p] in
    incr p;
    v
  in
  let u16 () =
    let hi = byte () in
    (hi lsl 8) lor byte ()
  in
  let u32 () =
    let hi = u16 () in
    (hi lsl 16) lor u16 ()
  in
  let take n =
    if !p + n > String.length s then fail ();
    let sub = String.sub s !p n in
    p := !p + n;
    sub
  in
  let word_bits = byte () in
  let n_streams = byte () in
  let streams =
    Array.init n_streams (fun _ ->
        let w = byte () in
        Array.init w (fun _ -> byte ()))
  in
  let context_bits = byte () in
  let quantize = byte () = 1 in
  let prune_below = u16 () in
  let block_size = u16 () in
  let config = { word_bits; streams; context_bits; quantize; prune_below; block_size } in
  (match validate_config config with
  | Ok () -> ()
  | Error e -> invalid_arg ("Samc.deserialize: " ^ e));
  let original_size = u32 () in
  let model_len = u32 () in
  let model, _ = Markov_model.deserialize (take model_len) ~pos:0 in
  let nblocks = u32 () in
  (* Validate the declared counts before allocating anything sized by
     them: each block costs at least its 2-byte length prefix, so a count
     the remaining bytes cannot hold is corruption, not a large image. *)
  if nblocks > (String.length s - !p) / 2 then fail ();
  if nblocks <> block_count config ~code_bytes:original_size then
    invalid_arg "Samc.deserialize: block count mismatch";
  let blocks =
    Array.init nblocks (fun _ ->
        let len = u16 () in
        take len)
  in
  ({ config; model; blocks; original_size }, !p)

let deserialize_checked s ~pos =
  Ccomp_util.Decode_error.protect ~section:"samc.deserialize" (fun () -> deserialize s ~pos)

(* Byte ranges inside [serialize t], for section-targeted fault injection
   and per-block integrity. Mirrors the layout [serialize] writes. *)
let model_span t =
  let c = t.config in
  let header =
    1 + 1
    + Array.fold_left (fun acc stream -> acc + 1 + Array.length stream) 0 c.streams
    + 1 + 1 + 2 + 2 + 4 + 4
  in
  (header, Markov_model.storage_bytes t.model)

let block_spans t =
  let model_off, model_len = model_span t in
  let off = ref (model_off + model_len + 4) in
  Array.map
    (fun blk ->
      off := !off + 2;
      let o = !off in
      off := o + String.length blk;
      (o, String.length blk))
    t.blocks
