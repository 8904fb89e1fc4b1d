let scale_bits = 12
let scale = 1 lsl scale_bits

let prob_of_counts ~zeros ~ones =
  let total = zeros + ones in
  if total = 0 then scale / 2
  else
    let p = (zeros * scale) + (total / 2) in
    let p = p / total in
    max 1 (min (scale - 1) p)

let quantize_pow2 p0 =
  let p0 = max 1 (min (scale - 1) p0) in
  (* Quantise the less probable symbol's probability to the nearest power
     of 1/2 (in log space), then rebuild p0. *)
  let lps = min p0 (scale - p0) in
  let rec nearest k =
    (* probability 2^-k maps to scale lsr k *)
    if k >= scale_bits then scale_bits
    else
      let hi = scale lsr k and lo = scale lsr (k + 1) in
      if lps >= lo then if hi - lps <= lps - lo then k else k + 1 else nearest (k + 1)
  in
  let k = nearest 1 in
  let q = max 1 (scale lsr k) in
  if p0 <= scale / 2 then q else scale - q

(* Interval bookkeeping shared by encoder and decoder:
   range is kept in [2^16, 2^24]; bound = (range >> scale_bits) * p0 is the
   width of the 0 branch, always in [1, range). *)
let top_value = 1 lsl 24
let renorm_limit = 1 lsl 16

let bound_of ~range ~p0 =
  assert (p0 >= 1 && p0 < scale);
  (range lsr scale_bits) * p0

module Encoder = struct
  type t = {
    mutable low : int; (* < 2^25: 24-bit window plus carry bit *)
    mutable range : int;
    mutable cache : int; (* last byte withheld for possible carry *)
    mutable started : bool; (* cache holds a real byte *)
    mutable pending : int; (* 0xff bytes withheld behind the cache *)
    buf : Buffer.t;
  }

  let create () =
    { low = 0; range = top_value; cache = 0; started = false; pending = 0; buf = Buffer.create 64 }

  (* Return a finished encoder to its initial state, keeping the byte
     buffer's storage — per-domain scratch in the parallel block
     pipeline encodes thousands of blocks through one encoder. *)
  let reset e =
    e.low <- 0;
    e.range <- top_value;
    e.cache <- 0;
    e.started <- false;
    e.pending <- 0;
    Buffer.clear e.buf

  (* Emit the byte leaving the 24-bit window, resolving carries: a carry
     increments the cached byte and turns every pending 0xff into 0x00. *)
  let shift_low e =
    let carry = e.low lsr 24 in
    if carry = 1 || e.low < 0xff0000 then begin
      (* A carry with no byte yet emitted would mean the coded value
         reached 1.0, which the low+range <= 1 invariant forbids. *)
      assert (carry = 0 || e.started);
      if e.started then Buffer.add_char e.buf (Char.chr ((e.cache + carry) land 0xff));
      let filler = (0xff + carry) land 0xff in
      for _ = 1 to e.pending do
        Buffer.add_char e.buf (Char.chr filler)
      done;
      e.pending <- 0;
      e.cache <- (e.low lsr 16) land 0xff;
      e.started <- true
    end
    else e.pending <- e.pending + 1;
    e.low <- (e.low land 0xffff) lsl 8

  let encode e ~p0 bit =
    let bound = bound_of ~range:e.range ~p0 in
    (match bit with
    | 0 -> e.range <- bound
    | 1 ->
      e.low <- e.low + bound;
      e.range <- e.range - bound
    | _ -> invalid_arg "Binary_coder.encode: bit must be 0 or 1");
    while e.range < renorm_limit do
      shift_low e;
      e.range <- e.range lsl 8
    done

  (* The encoder twin of [Decoder.decode_tree]: code the low [width]
     bits of [value], most significant first, down the implicit heap at
     [tree] in [probs], with the interval registers in locals for the
     whole descent; renormalisation hands [low] back to the record for
     [shift_low]. *)
  let encode_tree e probs ~tree ~width value =
    let low = ref e.low and range = ref e.range in
    let node = ref 1 in
    for k = width - 1 downto 0 do
      let bit = (value lsr k) land 1 in
      let bound = (!range lsr scale_bits) * Array.unsafe_get probs (tree + !node) in
      if bit = 0 then range := bound
      else begin
        low := !low + bound;
        range := !range - bound
      end;
      while !range < renorm_limit do
        e.low <- !low;
        shift_low e;
        low := e.low;
        range := !range lsl 8
      done;
      node := (2 * !node) + bit
    done;
    e.low <- !low;
    e.range <- !range

  let finish e =
    (* Choose the value in [low, low+range) with the most trailing zero
       bits; its trailing zero bytes need not be stored because the decoder
       reads zeros past end of input. *)
    let hi = e.low + e.range - 1 in
    let k = ref 24 in
    while
      !k > 0
      &&
      let mask = (1 lsl !k) - 1 in
      (e.low + mask) land lnot mask > hi
    do
      decr k
    done;
    let mask = (1 lsl !k) - 1 in
    e.low <- (e.low + mask) land lnot mask;
    for _ = 1 to 3 do
      shift_low e
    done;
    (* Drain what renormalisation left behind; no more carries can occur. *)
    if e.started then Buffer.add_char e.buf (Char.chr e.cache);
    for _ = 1 to e.pending do
      Buffer.add_char e.buf '\xff'
    done;
    let n = ref (Buffer.length e.buf) in
    while !n > 0 && Buffer.nth e.buf (!n - 1) = '\x00' do
      decr n
    done;
    Buffer.sub e.buf 0 !n
end

module Decoder = struct
  type t = {
    data : string;
    mutable pos : int;
    mutable code : int; (* 24-bit window of the encoded value *)
    mutable range : int;
  }

  let next_byte d =
    let b = if d.pos < String.length d.data then Char.code d.data.[d.pos] else 0 in
    d.pos <- d.pos + 1;
    b

  let create ?(pos = 0) data =
    let d = { data; pos; code = 0; range = top_value } in
    for _ = 1 to 3 do
      d.code <- (d.code lsl 8) lor next_byte d
    done;
    d

  let decode d ~p0 =
    let bound = bound_of ~range:d.range ~p0 in
    let bit =
      if d.code < bound then begin
        d.range <- bound;
        0
      end
      else begin
        d.code <- d.code - bound;
        d.range <- d.range - bound;
        1
      end
    in
    while d.range < renorm_limit do
      d.code <- ((d.code lsl 8) lor next_byte d) land 0xffffff;
      d.range <- d.range lsl 8
    done;
    bit

  (* Batched heap descent: decode [width] bits in one call, reading each
     bit's p0 from [probs.(tree + node)] as the node walks the implicit
     heap from 1. Keeping the interval registers in locals for the whole
     descent (instead of a field round-trip per bit, which a non-flambda
     build will not optimise away) is what makes the SAMC word loop
     decode-bound rather than call-bound. *)
  let decode_tree d probs ~tree ~width =
    let data = d.data in
    let len = String.length data in
    let code = ref d.code in
    let range = ref d.range in
    let pos = ref d.pos in
    let node = ref 1 in
    for _ = 1 to width do
      let p0 = Array.unsafe_get probs (tree + !node) in
      let bound = (!range lsr scale_bits) * p0 in
      let bit =
        if !code < bound then begin
          range := bound;
          0
        end
        else begin
          code := !code - bound;
          range := !range - bound;
          1
        end
      in
      while !range < renorm_limit do
        let b = if !pos < len then Char.code (String.unsafe_get data !pos) else 0 in
        incr pos;
        code := ((!code lsl 8) lor b) land 0xffffff;
        range := !range lsl 8
      done;
      node := (2 * !node) + bit
    done;
    d.code <- !code;
    d.range <- !range;
    d.pos <- !pos;
    !node

  let consumed_bytes d = min d.pos (String.length d.data)
end
