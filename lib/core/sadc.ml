module Huffman = Ccomp_huffman.Huffman
module Freq = Ccomp_entropy.Freq
module Bit_writer = Ccomp_bitio.Bit_writer
module Bit_reader = Ccomp_bitio.Bit_reader
module Obs = Ccomp_obs.Obs

(* Observability, shared by every ISA instantiation (the fuzz campaign
   runs several in one process): per-block compress/decompress latency
   and size, dictionary shape, and the bit-I/O refill/flush counts of
   the Huffman coding layer. Guarded by [Obs.metrics_enabled]; never
   alters coded bits. *)
let m_c_blocks = Obs.Counter.make "sadc.compress.blocks"

let m_c_bytes_in = Obs.Counter.make "sadc.compress.bytes_in"

let m_c_bytes_out = Obs.Counter.make "sadc.compress.bytes_out"

let m_c_block_us = Obs.Histogram.make "sadc.compress.block_us"

let m_c_block_ratio = Obs.Histogram.make "sadc.compress.block_ratio"

let m_d_blocks = Obs.Counter.make "sadc.decompress.blocks"

let m_d_bytes_in = Obs.Counter.make "sadc.decompress.bytes_in"

let m_d_bytes_out = Obs.Counter.make "sadc.decompress.bytes_out"

let m_d_block_us = Obs.Histogram.make "sadc.decompress.block_us"

let m_reader_refills = Obs.Counter.make "bitio.reader.refills"

let m_writer_flushes = Obs.Counter.make "bitio.writer.flushes"

let g_dict_entries = Obs.Gauge.make "sadc.dict.entries"

let g_dict_rounds = Obs.Gauge.make "sadc.dict.rounds"

type config = { block_size : int; max_entries : int; max_rounds : int }

let default_config ?(block_size = 32) ?(max_entries = 256) ?(max_rounds = 512) () =
  { block_size; max_entries; max_rounds }

type dict_stats = {
  entries : int;
  base_entries : int;
  group_entries : int;
  specialized_entries : int;
  longest_group : int;
  rounds : int;
}

module Make (I : Sadc_isa.S) = struct
  type primitive = { sym : int; fixed : (int * int * int) list }

  type entry = { prims : primitive array }

  type compressed = {
    config : config;
    dict : entry array;
    token_code : Huffman.code;
    chunk_codes : Huffman.code option array array;
        (* per stream, per distinct chunk width (see [stream_widths]) *)
    blocks : (string * int) array;
    original_size : int;
    rounds : int;
  }

  (* Items wider than a byte are Huffman coded as chunks: a leading
     partial-byte chunk followed by whole bytes, each chunk position with
     its own code (16-bit immediates -> hi/lo byte alphabets, 26-bit jump
     targets -> 2+8+8+8). *)
  let chunk_widths bits =
    if bits <= 8 then [ bits ]
    else
      let r = bits mod 8 in
      (if r = 0 then [] else [ r ]) @ List.init (bits / 8) (fun _ -> 8)

  let stream_chunks = Array.map chunk_widths I.stream_bits

  (* One Huffman code per (stream, chunk width), as the paper Huffman-codes
     whole streams: all 8-bit chunks of a stream share one alphabet. *)
  let stream_widths = Array.map (List.sort_uniq compare) stream_chunks

  let width_index s w =
    let rec go i = function
      | [] -> invalid_arg "Sadc: unknown chunk width"
      | w' :: _ when w' = w -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 stream_widths.(s)

  (* Per stream, the chunk widths (most significant first) and each
     chunk's alphabet index in [stream_widths], as arrays for the coding
     loops. *)
  let chunk_w = Array.map Array.of_list stream_chunks

  let chunk_alpha = Array.mapi (fun s ws -> Array.map (width_index s) ws) chunk_w

  (* --- segmentation ------------------------------------------------- *)

  (* Greedy instruction-aligned packing into cache blocks; fixed-width
     ISAs fill each block exactly, variable-length ones approximate the
     cache line without splitting an instruction (DESIGN.md §2). *)
  let segments instrs block_size =
    let n = Array.length instrs in
    let segs = ref [] in
    let start = ref 0 in
    let acc = ref 0 in
    for i = 0 to n - 1 do
      let len = I.byte_length instrs.(i) in
      if !acc > 0 && !acc + len > block_size then begin
        segs := (!start, i - !start) :: !segs;
        start := i;
        acc := 0
      end;
      acc := !acc + len
    done;
    if !start < n then segs := (!start, n - !start) :: !segs;
    Array.of_list (List.rev !segs)

  (* --- program layout ------------------------------------------------ *)

  (* Every operand item of the program in one int array, instruction-major,
     then by stream, then in pull order: the items of instruction [i] in
     stream [s] are [ops.(op_off.(k))] up to [ops.(op_off.(k + 1) - 1)]
     with [k = i * I.stream_count + s] ([ops] may run past the last item).
     Dictionary rounds and both coders read operands only through this
     layout. *)
  type prog = { instrs : I.instr array; ops : int array; op_off : int array }

  let prog_of instrs =
    let sc = I.stream_count in
    let n = Array.length instrs in
    let op_off = Array.make ((n * sc) + 1) 0 in
    (* MIPS instructions carry 2.8 items on average, x86 fewer *)
    let ops = ref (Array.make (max 16 (3 * n)) 0) in
    let len = ref 0 in
    let rec add = function
      | [] -> ()
      | v :: tl ->
        if !len = Array.length !ops then begin
          let grown = Array.make (2 * !len) 0 in
          Array.blit !ops 0 grown 0 !len;
          ops := grown
        end;
        Array.unsafe_set !ops !len v;
        incr len;
        add tl
    in
    for i = 0 to n - 1 do
      let items = I.items instrs.(i) in
      for s = 0 to sc - 1 do
        op_off.((i * sc) + s) <- !len;
        add items.(s)
      done
    done;
    op_off.(n * sc) <- !len;
    { instrs; ops = !ops; op_off }

  (* Item [q] of stream [s] of instruction [i], or -1 when the
     instruction has fewer items there (same-symbol x86 instructions can
     differ in operand count). Item values are non-negative. *)
  let item p i s q =
    let k = (i * I.stream_count) + s in
    let o = p.op_off.(k) + q in
    if o < p.op_off.(k + 1) then p.ops.(o) else -1

  (* --- dictionary construction --------------------------------------- *)

  type cand =
    | Pair of int * int
    | Triple of int * int * int
    | Spec of int * int * int * int (* entry, stream, pull position, value *)

  (* Candidates are hashed as packed integers: entry ids fit 20 bits,
     stream/position a few, operand values at most 26 bits. *)
  let key_pair a b = (1 lsl 60) lor (a lsl 20) lor b

  let key_triple a b c = (2 lsl 60) lor (a lsl 40) lor (b lsl 20) lor c

  let key_spec e s p v = (3 lsl 60) lor (e lsl 40) lor (s lsl 36) lor (p lsl 30) lor v

  let cand_of_key key =
    let field off width = (key lsr off) land ((1 lsl width) - 1) in
    match key lsr 60 with
    | 1 -> Pair (field 20 20, field 0 20)
    | 2 -> Triple (field 40 20, field 20 20, field 0 20)
    | 3 -> Spec (field 40 20, field 36 4, field 30 6, field 0 30)
    | _ -> assert false

  let entry_cost e = Array.length e.prims

  (* Does the absorbed-operand list [fixed] cover item [p] of stream [s]? *)
  let rec is_fixed (fixed : (int * int * int) list) s p =
    match fixed with
    | [] -> false
    | (s', p', _) :: tl -> (s' = s && p' = p) || is_fixed tl s p

  (* A token is one int: its dictionary entry in the low 20 bits (entry
     ids fit 20 bits, as in the packed keys) and the index of its first
     instruction above. It covers as many consecutive instructions as its
     entry has primitives. *)
  let tok_entry t = t land 0xfffff

  let tok_start t = t lsr 20

  let make_tok e start = (start lsl 20) lor e

  let ent toks i = tok_entry (Array.unsafe_get toks i)

  (* The state both builders grow: the dictionary, and the token slots of
     every block. Block [b] owns [toks] from [bstart.(b)] for [blen.(b)]
     tokens; it starts with one token per instruction of its segment, and
     a reparse rewrites the span in place (it only ever shortens it). *)
  type build = {
    prog : prog;
    mutable ents : entry array;
    mutable dict_n : int;
    toks : int array;
    bstart : int array;
    blen : int array;
  }

  let push st e =
    let id = st.dict_n in
    let cap = Array.length st.ents in
    if id = cap then begin
      let grown = Array.make (max 16 (2 * cap)) e in
      Array.blit st.ents 0 grown 0 cap;
      st.ents <- grown
    end;
    st.ents.(id) <- e;
    st.dict_n <- id + 1;
    id

  (* Base dictionary (one entry per opcode symbol present, §4.1 step 2)
     plus the base tokenization, shared by both builders. *)
  let init_build prog segs =
    let n = Array.length prog.instrs in
    let st =
      {
        prog;
        ents = [||];
        dict_n = 0;
        toks = Array.make n 0;
        bstart = Array.map fst segs;
        blen = Array.map snd segs;
      }
    in
    let base_id = Hashtbl.create 64 in
    Array.iteri
      (fun i instr ->
        let sym = I.symbol instr in
        let id =
          match Hashtbl.find_opt base_id sym with
          | Some id -> id
          | None ->
            let id = push st { prims = [| { sym; fixed = [] } |] } in
            Hashtbl.add base_id sym id;
            id
        in
        st.toks.(i) <- make_tok id i)
      prog.instrs;
    st

  let max_block_len st = Array.fold_left max 1 st.blen

  (* Call [f key] for the specialisation candidate of every operand item
     of instruction [i] that the single-primitive entry [id] (absorbed
     operands [fixed]) does not already absorb. *)
  let spec_keys p id fixed i f =
    let sc = I.stream_count in
    for s = 0 to sc - 1 do
      let k = (i * sc) + s in
      let o = p.op_off.(k) in
      for q = 0 to p.op_off.(k + 1) - o - 1 do
        if not (is_fixed fixed s q) then f (key_spec id s q p.ops.(o + q))
      done
    done

  (* Count one block's candidate occurrences, calling [emit key] once per
     counted occurrence. Blocks count independently: the non-overlap
     bookkeeping for self-overlapping n-grams like (a, a) is block-local
     (a pattern never straddles two blocks), so the global count of every
     candidate is the sum of its per-block counts — the invariant the
     incremental builder rests on. *)
  (* [last_end] is caller-provided scratch (last counted end index per
     n-gram key): a tiny generation-stamped open-addressing map, reset
     O(1) per block by bumping the generation — a block holds at most
     [block_size] tokens, so the per-window bookkeeping must not
     allocate. Slots from older generations read as empty. *)
  type last_end = {
    mutable le_key : int array;
    mutable le_end : int array;
    mutable le_gen : int array;
    mutable le_cap : int;
    mutable le_g : int;
  }

  let le_create () =
    {
      le_key = Array.make 256 0;
      le_end = Array.make 256 0;
      le_gen = Array.make 256 (-1);
      le_cap = 256;
      le_g = 0;
    }

  (* Note an occurrence of n-gram [key] spanning token indices [first]
     to [last] of the current block; true when it counts, i.e. does not
     overlap the last counted occurrence of the same key. *)
  let le_note le key first last =
    let g = le.le_g in
    let mask = le.le_cap - 1 in
    let h = key * 0x9E3779B97F4A7C1 in
    let i = ref ((h lxor (h lsr 31)) land mask) in
    while le.le_gen.(!i) = g && le.le_key.(!i) <> key do
      i := (!i + 1) land mask
    done;
    if le.le_gen.(!i) <> g || le.le_end.(!i) < first then begin
      le.le_key.(!i) <- key;
      le.le_end.(!i) <- last;
      le.le_gen.(!i) <- g;
      true
    end
    else false

  let count_block le st b emit =
    let toks = st.toks and off = st.bstart.(b) and n = st.blen.(b) in
    if 4 * n > le.le_cap then begin
      let c = ref le.le_cap in
      while 4 * n > !c do
        c := !c * 2
      done;
      le.le_key <- Array.make !c 0;
      le.le_end <- Array.make !c 0;
      le.le_gen <- Array.make !c (-1);
      le.le_cap <- !c
    end;
    le.le_g <- le.le_g + 1;
    for i = off to off + n - 2 do
      let key = key_pair (ent toks i) (ent toks (i + 1)) in
      if le_note le key i (i + 1) then emit key
    done;
    for i = off to off + n - 3 do
      let key = key_triple (ent toks i) (ent toks (i + 1)) (ent toks (i + 2)) in
      if le_note le key i (i + 2) then emit key
    done;
    for ti = off to off + n - 1 do
      let t = toks.(ti) in
      let prims = st.ents.(tok_entry t).prims in
      if Array.length prims = 1 then
        spec_keys st.prog (tok_entry t) prims.(0).fixed (tok_start t) emit
    done

  (* Full-rescan reference: global counts rebuilt from scratch. Kept as
     the specification the incremental builder is tested against. *)
  let count_candidates st =
    let counts : (int, int ref) Hashtbl.t = Hashtbl.create 4096 in
    let last_end = le_create () in
    for b = 0 to Array.length st.blen - 1 do
      count_block last_end st b (fun key ->
          match Hashtbl.find_opt counts key with
          | Some r -> incr r
          | None -> Hashtbl.add counts key (ref 1))
    done;
    counts

  (* Gains in eighths of a byte saved, following §4.1: a group of n
     opcodes replacing f occurrences saves f*(occupied tokens - 1) opcode
     bytes and costs n dictionary bytes; absorbing an operand of b bits
     saves f*b/8 and costs a byte. Eight times the byte gain is an exact
     integer, [m * f - k], with [m] and [k] fixed per candidate (entry
     costs never change once an entry exists). Both are read straight
     from the packed key. *)
  let gain_m key =
    match key lsr 60 with 1 -> 8 | 2 -> 16 | _ -> I.stream_bits.((key lsr 36) land 0xf)

  let field_cost st key off = entry_cost st.ents.((key lsr off) land 0xfffff)

  let gain_k st key =
    match key lsr 60 with
    | 1 -> 8 * (field_cost st key 20 + field_cost st key 0)
    | 2 -> 8 * (field_cost st key 40 + field_cost st key 20 + field_cost st key 0)
    | _ -> 8

  let new_entry st = function
    | Pair (a, b) -> { prims = Array.append st.ents.(a).prims st.ents.(b).prims }
    | Triple (a, b, c) ->
      { prims = Array.concat [ st.ents.(a).prims; st.ents.(b).prims; st.ents.(c).prims ] }
    | Spec (e, s, p, v) ->
      let prim = st.ents.(e).prims.(0) in
      { prims = [| { prim with fixed = (s, p, v) :: prim.fixed } |] }

  (* The n-gram case of [reparse] below: entries [a; b'] ([width] 2) or
     [a; b'; c] ([width] 3). *)
  let reparse_ngrams st nid b old_buf old_sites new_sites width a b' c =
    let toks = st.toks and off = st.bstart.(b) and n = st.blen.(b) in
    let nsites = ref 0 in
    let nout = ref 0 in
    let i = ref 0 in
    while !i < n do
      if
        !i + width <= n
        && ent old_buf !i = a
        && ent old_buf (!i + 1) = b'
        && (width = 2 || ent old_buf (!i + 2) = c)
      then begin
        toks.(off + !nout) <- make_tok nid (tok_start old_buf.(!i));
        old_sites.(!nsites) <- !i;
        new_sites.(!nsites) <- !nout;
        incr nsites;
        incr nout;
        i := !i + width
      end
      else begin
        toks.(off + !nout) <- old_buf.(!i);
        incr nout;
        incr i
      end
    done;
    st.blen.(b) <- !nout;
    !nsites

  (* Greedy reparse of block [b], replacing each occurrence of [cand] by a
     token of entry [nid]. The old tokens are first copied to [old_buf];
     the new ones are written back into the block's own span (a reparse
     only shortens it). [old_sites] receives the index in [old_buf] of
     each consumed occurrence, [new_sites] the index in the span of each
     inserted token; returns the number of sites. *)
  let reparse st cand nid b old_buf old_sites new_sites =
    let toks = st.toks and off = st.bstart.(b) and n = st.blen.(b) in
    Array.blit toks off old_buf 0 n;
    match cand with
    | Pair (a, b') -> reparse_ngrams st nid b old_buf old_sites new_sites 2 a b' 0
    | Triple (a, b', c) -> reparse_ngrams st nid b old_buf old_sites new_sites 3 a b' c
    | Spec (id, s, q, v) ->
      (* positions are preserved, so old and new sites coincide *)
      let nsites = ref 0 in
      for i = 0 to n - 1 do
        let t = old_buf.(i) in
        if tok_entry t = id && item st.prog (tok_start t) s q = v then begin
          toks.(off + i) <- make_tok nid (tok_start t);
          old_sites.(!nsites) <- i;
          new_sites.(!nsites) <- i;
          incr nsites
        end
      done;
      !nsites

  (* Non-overlap chain count of n-gram [key] in [n] tokens of [toks] from
     [off] — the per-key replay of [count_block]'s bookkeeping, for the
     few keys the incremental builder's windowed +/-1s cannot handle. *)
  let chain_count toks off n key =
    let pair = key lsr 60 = 1 in
    let width = if pair then 2 else 3 in
    let a = (key lsr if pair then 20 else 40) land 0xfffff in
    let b = (key lsr if pair then 0 else 20) land 0xfffff in
    let c = key land 0xfffff in
    let count = ref 0 in
    let last = ref (-1) in
    for i = off to off + n - width do
      if
        ent toks i = a && ent toks (i + 1) = b && (pair || ent toks (i + 2) = c) && !last < i
      then begin
        incr count;
        last := i + width - 1
      end
    done;
    !count

  (* Canonical selection: largest gain, ties broken toward the smallest
     packed key. (The seed's tie-break was Hashtbl iteration order, which
     an incremental builder cannot reproduce; both builders now share
     this deterministic rule.) *)
  let select_best st counts =
    let best = ref None in
    Hashtbl.iter
      (fun key count ->
        let c = !count in
        if c > 0 then begin
          let g = (gain_m key * c) - gain_k st key in
          if g > 0 then
            match !best with
            | Some (g', k') when g' > g || (g' = g && k' < key) -> ()
            | _ -> best := Some (g, key)
        end)
      counts;
    !best

  (* Full-rescan builder: recounts every candidate in every block each
     round and reparses every block. Kept as the executable specification
     of the incremental builder (and for the parity tests); not used on
     the hot path. *)
  let build_dictionary_naive config prog segs =
    let st = init_build prog segs in
    let len = max_block_len st in
    let old_buf = Array.make len 0 in
    let old_sites = Array.make len 0 and new_sites = Array.make len 0 in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && st.dict_n < config.max_entries && !rounds < config.max_rounds do
      incr rounds;
      match select_best st (count_candidates st) with
      | None -> continue_ := false
      | Some (_, key) ->
        let cand = cand_of_key key in
        let nid = push st (new_entry st cand) in
        for b = 0 to Array.length st.blen - 1 do
          ignore (reparse st cand nid b old_buf old_sites new_sites : int)
        done
    done;
    (Array.sub st.ents 0 st.dict_n, st, !rounds)

  (* The incremental builder's candidate table: open addressing over
     packed keys, one [slot_words]-int slot per key in one flat array.
     Packed keys are nonzero (the kind tag sits in the high bits), so an
     all-zero slot is empty, and every field's zero means "none yet".
     Field 0 is the packed key, with [hot_bit] set while the key is
     listed in [touched]; the others follow. *)
  let slot_words = 6

  let f_count = 1 (* live occurrence count *)

  let f_m = 2 (* gain coefficient [m], 0 = not cached yet *)

  let f_k = 3 (* gain coefficient [k] *)

  let f_lastg = 4 (* gain last pushed to the heap and not yet popped, 0 = none *)

  let f_occ = 5 (* head of the key's occurrence list in the pool, 0 = empty *)

  (* Incremental builder: global candidate counts are kept as the sum of
     per-block contributions. Each round pops the best candidate from a
     lazily-invalidated max-heap, reparses only the blocks listed in the
     candidate's occurrence index, and patches counts surgically: only
     token windows overlapping a replacement site can change, so the
     matched blocks get a handful of +/-1 bumps instead of a full
     recount. A heap element is [(gain, key)] frozen at push time; a pop
     is valid only if that gain still equals the gain recomputed from the
     live count. Gains depend only on the live count and on entry costs
     fixed at entry creation, so the staleness check is exact, and every
     key with positive gain always has its live entry somewhere in the
     heap. [check] recomputes all counts by full rescan each round and
     raises on any disagreement (the parity tests' hook).

     Only a key holding the round's new entry can gain occurrences: a
     new window always covers an inserted token, and a key without the
     new entry occurs in the reparsed tokens at most where it occurred
     before (the old tokens minus the replaced n-grams), so its
     non-overlapping count cannot rise. So a key whose gain is not
     positive after the initial count (round zero, where every key is
     new) can never be selected, and round zero lists occurrences only
     for keys with a positive gain. *)
  let build_dictionary_incremental ?(check = false) config prog segs =
    let st = init_build prog segs in
    let nblocks = Array.length st.blen in
    let ntoks = Array.length st.toks in
    (* Distinct keys (pairs, triples and specialisations of the base
       tokens, then those of the entries each round adds) come to
       1.15-2.7 per token by the end of a build on the generated suite at
       scale 1.0, the most on the smallest programs. The table starts
       under the 3/4 growth threshold for 1.25 per token plus 4096: the
       largest programs never grow it, and 7 of the suite's 36 programs
       grow it once. *)
    let initial_cap =
      let target = (ntoks + (ntoks / 4) + 4096) * 4 / 3 in
      let c = ref 1024 in
      while !c < target do
        c := !c * 2
      done;
      !c
    in
    let cap = ref initial_cap in
    let mask = ref (!cap - 1) in
    let tbl = ref (Array.make (slot_words * !cap) 0) in
    let hot_bit = 1 lsl 62 in
    let key_mask = hot_bit - 1 in
    let size = ref 0 in
    (* Slot indices are provably in [0, cap): unsafe accesses avoid bounds
       checks on the single hottest loop of the build. Returns the slot's
       base index in [tbl]. *)
    let probe key =
      let h = key * 0x9E3779B97F4A7C1 in
      let a = !tbl in
      let m = !mask in
      let i = ref ((h lxor (h lsr 31)) land m) in
      while
        let k = Array.unsafe_get a (!i * slot_words) land key_mask in
        k <> 0 && k <> key
      do
        i := (!i + 1) land m
      done;
      !i * slot_words
    in
    let grow () =
      let old = !tbl and ocap = !cap in
      cap := ocap * 2;
      mask := !cap - 1;
      tbl := Array.make (slot_words * !cap) 0;
      for i = 0 to ocap - 1 do
        let o = i * slot_words in
        if old.(o) <> 0 then Array.blit old o !tbl (probe (old.(o) land key_mask)) slot_words
      done
    in
    (* Growable int stacks, for the scratch lists below. *)
    let doubled a =
      let bigger = Array.make (max 1024 (2 * Array.length a)) 0 in
      Array.blit a 0 bigger 0 (Array.length a);
      bigger
    in
    let push_int buf n v =
      if !n = Array.length !buf then buf := doubled !buf;
      Array.unsafe_set !buf !n v;
      incr n
    in
    (* Keys whose count moved since the last heap refresh (their slot's
       hot flag is set, so each key is listed once). A reusable stack: it
       fills and drains every round. *)
    let touched = ref (Array.make 1024 0) and ntouched = ref 0 in
    (* Occurrence lists: the blocks where a key's count rose, as singly
       linked lists in an int pool (node [j] holds [block; next] at
       [2j, 2j+1]; node 0 is the empty list). Lists are append-only and
       allowed to go stale — entries are re-validated by the reparse scan
       before any count is changed. *)
    let pool = ref [||] and pool_n = ref 2 in
    let list_at i b =
      let a = !tbl in
      let head = a.(i + f_occ) in
      if head = 0 || !pool.(2 * head) <> b then begin
        a.(i + f_occ) <- !pool_n / 2;
        push_int pool pool_n b;
        push_int pool pool_n head
      end
    in
    (* Off during round zero, whose lists a second pass builds. *)
    let listing = ref false in
    let bump b key d =
      if !size * 4 >= !cap * 3 then grow ();
      let i = probe key in
      let a = !tbl in
      let kv = Array.unsafe_get a i in
      if kv land hot_bit = 0 then begin
        if kv = 0 then incr size;
        Array.unsafe_set a i (key lor hot_bit);
        push_int touched ntouched key
      end;
      Array.unsafe_set a (i + f_count) (Array.unsafe_get a (i + f_count) + d);
      if d > 0 && !listing then list_at i b
    in
    (* [bump] for the block and delta in [cur_b] / [cur_d], as the one
       closure the counting walks call. *)
    let cur_b = ref 0 and cur_d = ref 0 in
    let bump_cur key = bump !cur_b key !cur_d in
    (* Eight times the gain, via the slot's cached coefficients. *)
    let gain_slot i key c =
      let a = !tbl in
      if a.(i + f_m) = 0 then begin
        a.(i + f_m) <- gain_m key;
        a.(i + f_k) <- gain_k st key
      end;
      (a.(i + f_m) * c) - a.(i + f_k)
    in
    (* Max-heap of (gain, key) as two parallel int arrays: larger gain
       first, ties toward the smaller key. *)
    let heap_g = ref (Array.make 1024 0) and heap_k = ref (Array.make 1024 0) in
    let heap_n = ref 0 in
    let above i j =
      let gi = !heap_g.(i) and gj = !heap_g.(j) in
      gi > gj || (gi = gj && !heap_k.(i) < !heap_k.(j))
    in
    let swap i j =
      let g = !heap_g.(i) and k = !heap_k.(i) in
      !heap_g.(i) <- !heap_g.(j);
      !heap_k.(i) <- !heap_k.(j);
      !heap_g.(j) <- g;
      !heap_k.(j) <- k
    in
    let heap_push g key =
      if !heap_n = Array.length !heap_g then begin
        heap_g := doubled !heap_g;
        heap_k := doubled !heap_k
      end;
      !heap_g.(!heap_n) <- g;
      !heap_k.(!heap_n) <- key;
      let i = ref !heap_n in
      incr heap_n;
      while !i > 0 && above !i ((!i - 1) / 2) do
        swap !i ((!i - 1) / 2);
        i := (!i - 1) / 2
      done
    in
    let heap_drop_top () =
      decr heap_n;
      !heap_g.(0) <- !heap_g.(!heap_n);
      !heap_k.(0) <- !heap_k.(!heap_n);
      let i = ref 0 and sifting = ref true in
      while !sifting do
        let l = (2 * !i) + 1 in
        let top = if l < !heap_n && above l !i then l else !i in
        let top = if l + 1 < !heap_n && above (l + 1) top then l + 1 else top in
        if top = !i then sifting := false
        else begin
          swap !i top;
          i := top
        end
      done
    in
    (* End of a round: push every moved key whose gain is positive and
       differs from its last pushed gain. *)
    let refresh () =
      for t = 0 to !ntouched - 1 do
        let key = !touched.(t) in
        let i = probe key in
        let a = !tbl in
        a.(i) <- key;
        let c = a.(i + f_count) in
        if c > 0 then begin
          let g = gain_slot i key c in
          if g > 0 && g <> a.(i + f_lastg) then begin
            heap_push g key;
            a.(i + f_lastg) <- g
          end
        end
      done;
      ntouched := 0
    in
    let len = max_block_len st in
    (* Self-overlapping keys needing a full re-walk this block: each side
       of a reparse visits at most [len] pair and [len] triple windows. *)
    let recount = Array.make (4 * len) 0 and nrecount = ref 0 in
    let defer key =
      let j = ref 0 in
      while !j < !nrecount && recount.(!j) <> key do
        incr j
      done;
      if !j = !nrecount then begin
        recount.(!j) <- key;
        incr nrecount
      end
    in
    (* Apply the windowed +/-[d]s for one side of a reparse: every pair
       and triple window that overlaps a replacement site, visited once
       even when consecutive sites' windows overlap (sites ascend, so a
       per-kind cursor suffices). Only windows that overlap a site can
       change an n-gram count — unmarked windows map one-to-one between
       the old and new tokens with their keys intact, so their
       contributions cancel; a marked window of a non-self-overlapping
       key contributes exactly one match. Self-overlapping keys (pair
       with equal halves, triple with first = third) are deferred to
       [recount]. *)
    let windows b toks off n sites nsites width d =
      let nextp = ref 0 and nextt = ref 0 in
      for si = 0 to nsites - 1 do
        let s = sites.(si) in
        let hi = s + width - 1 in
        for p = max !nextp (s - 1) to min (n - 2) hi do
          let a = ent toks (off + p) and b' = ent toks (off + p + 1) in
          if a = b' then defer (key_pair a b') else bump b (key_pair a b') d
        done;
        nextp := hi + 1;
        for p = max !nextt (s - 2) to min (n - 3) hi do
          let a = ent toks (off + p) and c = ent toks (off + p + 2) in
          let key = key_triple a (ent toks (off + p + 1)) c in
          if a = c then defer key else bump b key d
        done;
        nextt := hi + 1
      done
    in
    let spec_delta t =
      let prims = st.ents.(tok_entry t).prims in
      if Array.length prims = 1 then
        spec_keys prog (tok_entry t) prims.(0).fixed (tok_start t) bump_cur
    in
    let old_buf = Array.make len 0 in
    let old_sites = Array.make len 0 in
    let new_sites = Array.make len 0 in
    (* Fused reparse + surgical count patch for one block; a block where
       the candidate no longer occurs comes back unchanged, so the
       reparse scan doubles as the stale-occurrence test. *)
    let update_block b cand nid =
      let n = st.blen.(b) in
      let nsites = reparse st cand nid b old_buf old_sites new_sites in
      if nsites > 0 then begin
        let toks = st.toks and off = st.bstart.(b) and nout = st.blen.(b) in
        let width = match cand with Pair _ -> 2 | Triple _ -> 3 | Spec _ -> 1 in
        nrecount := 0;
        windows b old_buf 0 n old_sites nsites width (-1);
        windows b toks off nout new_sites nsites 1 1;
        (* Self-overlapping keys surfaced from either side: replace the
           windowed +/-1s they never received with a full old/new diff. *)
        for j = 0 to !nrecount - 1 do
          let key = recount.(j) in
          let d = chain_count toks off nout key - chain_count old_buf 0 n key in
          if d <> 0 then bump b key d
        done;
        cur_b := b;
        cur_d := -1;
        for si = 0 to nsites - 1 do
          for j = old_sites.(si) to old_sites.(si) + width - 1 do
            spec_delta old_buf.(j)
          done
        done;
        (* The inserted token's own spec keys: only a Spec candidate
           yields a single-primitive token (Pair/Triple groups carry no
           spec keys). *)
        match cand with
        | Spec _ ->
          cur_d := 1;
          for si = 0 to nsites - 1 do
            spec_delta toks.(off + new_sites.(si))
          done
        | Pair _ | Triple _ -> ()
      end
    in
    let rec pop_best () =
      if !heap_n = 0 then None
      else begin
        let g = !heap_g.(0) and key = !heap_k.(0) in
        heap_drop_top ();
        let i = probe key in
        (* The pushed copy of [g] is leaving the heap; forget it so a
           later return to the same gain is pushed again. *)
        if !tbl.(i + f_lastg) = g then !tbl.(i + f_lastg) <- 0;
        let c = !tbl.(i + f_count) in
        if c > 0 && gain_slot i key c = g then Some key else pop_best ()
      end
    in
    let count_of key = !tbl.(probe key + f_count) in
    let check_counts () =
      let reference = count_candidates st in
      Hashtbl.iter
        (fun key r ->
          if count_of key <> !r then
            failwith
              (Printf.sprintf "Sadc incremental counts: key %d has %d, rescan says %d" key
                 (count_of key) !r))
        reference;
      for i = 0 to !cap - 1 do
        let o = i * slot_words in
        let key = !tbl.(o) land key_mask in
        if key <> 0 && !tbl.(o + f_count) <> 0 && not (Hashtbl.mem reference key) then
          failwith
            (Printf.sprintf "Sadc incremental counts: key %d has stale %d" key !tbl.(o + f_count))
      done
    in
    (* Round zero in two passes: count every key, then walk the blocks
       again to list them under the keys that came out selectable. A key
       occurs in at most [count] blocks, so the counts bound round zero's
       listing; the later rounds list up to 1.2 times as many nodes again
       on the generated suite (x86 the most), so the pool starts at 2.5
       times that bound. *)
    let last_end = le_create () in
    cur_d := 1;
    for b = 0 to nblocks - 1 do
      cur_b := b;
      count_block last_end st b bump_cur
    done;
    refresh ();
    (* the keys [refresh] pushed are exactly those with a positive gain *)
    let listed = ref 0 in
    for i = 0 to !cap - 1 do
      let o = i * slot_words in
      if !tbl.(o) <> 0 && !tbl.(o + f_lastg) > 0 then listed := !listed + !tbl.(o + f_count)
    done;
    pool := Array.make (2 * ((5 * !listed / 2) + 1024)) 0;
    let list_cur key =
      let i = probe key in
      let c = !tbl.(i + f_count) in
      if c > 0 && gain_slot i key c > 0 then list_at i !cur_b
    in
    for b = 0 to nblocks - 1 do
      cur_b := b;
      count_block last_end st b list_cur
    done;
    listing := true;
    (* Scratch "already reparsed this round" flags — an occurrence list
       may carry duplicates. *)
    let seen = Bytes.make (max nblocks 1) '\000' in
    let rounds = ref 0 in
    let continue_ = ref true in
    while !continue_ && st.dict_n < config.max_entries && !rounds < config.max_rounds do
      incr rounds;
      if check then check_counts ();
      match pop_best () with
      | None -> continue_ := false
      | Some key ->
        let cand = cand_of_key key in
        let nid = push st (new_entry st cand) in
        (* The list as it stands now: nodes are immutable and new ones are
           only prepended, so walking from this head sees exactly it. *)
        let head = !tbl.(probe key + f_occ) in
        let node = ref head in
        while !node <> 0 do
          let b = !pool.(2 * !node) in
          if Bytes.get seen b = '\000' then begin
            Bytes.set seen b '\001';
            update_block b cand nid
          end;
          node := !pool.((2 * !node) + 1)
        done;
        node := head;
        while !node <> 0 do
          Bytes.set seen !pool.(2 * !node) '\000';
          node := !pool.((2 * !node) + 1)
        done;
        refresh ()
    done;
    (Array.sub st.ents 0 st.dict_n, st, !rounds)

  (* --- entropy coding ------------------------------------------------- *)

  (* Iterate every coded element of block [b]: [on_token entry] per
     token, then [on_chunk stream alphabet value] for each chunk of each
     unabsorbed operand, in decode pull order ([alphabet] indexes
     [stream_widths.(stream)]). *)
  let iter_block dict st b ~on_token ~on_chunk =
    let p = st.prog and sc = I.stream_count in
    let off = st.bstart.(b) in
    for ti = off to off + st.blen.(b) - 1 do
      let t = st.toks.(ti) in
      on_token (tok_entry t);
      let prims = dict.(tok_entry t).prims in
      for j = 0 to Array.length prims - 1 do
        let fixed = prims.(j).fixed in
        let k0 = (tok_start t + j) * sc in
        for s = 0 to sc - 1 do
          let o = p.op_off.(k0 + s) in
          let ws = chunk_w.(s) and alpha = chunk_alpha.(s) in
          for q = 0 to p.op_off.(k0 + s + 1) - o - 1 do
            if not (is_fixed fixed s q) then begin
              let v = p.ops.(o + q) in
              let shift = ref I.stream_bits.(s) in
              for c = 0 to Array.length ws - 1 do
                let w = ws.(c) in
                shift := !shift - w;
                on_chunk s alpha.(c) ((v lsr !shift) land ((1 lsl w) - 1))
              done
            end
          done
        done
      done
    done

  let build_codes dict st =
    let token_freq = Freq.create (Array.length dict) in
    let chunk_freqs =
      Array.map (fun widths -> Array.of_list (List.map (fun w -> Freq.create (1 lsl w)) widths)) stream_widths
    in
    let on_token e = Freq.add token_freq e in
    let on_chunk s a cv = Freq.add chunk_freqs.(s).(a) cv in
    for b = 0 to Array.length st.blen - 1 do
      iter_block dict st b ~on_token ~on_chunk
    done;
    let token_code = Huffman.build token_freq in
    let chunk_codes =
      Array.map
        (Array.map (fun freq -> if Freq.total freq > 0 then Some (Huffman.build freq) else None))
        chunk_freqs
    in
    (token_code, chunk_codes)

  let encode_block w dict token_code chunk_codes st (start, len) b =
    Bit_writer.reset w;
    iter_block dict st b
      ~on_token:(fun e -> Huffman.encode_symbol token_code w e)
      ~on_chunk:(fun s a cv ->
        match chunk_codes.(s).(a) with
        | Some code -> Huffman.encode_symbol code w cv
        | None -> assert false);
    let original = ref 0 in
    for i = start to start + len - 1 do
      original := !original + I.byte_length st.prog.instrs.(i)
    done;
    if Obs.metrics_enabled () then Obs.Counter.add m_writer_flushes (Bit_writer.flushes w);
    (Bit_writer.contents w, !original)

  let compress ?(jobs = 1) config instr_list =
    Obs.with_span ~cat:"sadc" ("sadc." ^ I.name ^ ".compress") @@ fun () ->
    let instrs = Array.of_list instr_list in
    if Array.length instrs = 0 then invalid_arg "Sadc.compress: empty program";
    let segs = segments instrs config.block_size in
    (* Operand items feed every dictionary round and both coders; one
       flat array for the whole program, indexed through the tokens'
       first-instruction field — no per-block copies anywhere. *)
    let prog = Obs.with_span ~cat:"sadc" "sadc.operands" (fun () -> prog_of instrs) in
    (* Dictionary construction and code building are global (they see
       every block), so they stay serial; the entropy-coding of each
       block against the finished tables is independent and fans out,
       each domain reusing one bit writer. *)
    let dict, st, rounds =
      Obs.with_span ~cat:"sadc" "sadc.dictionary" (fun () ->
          build_dictionary_incremental config prog segs)
    in
    let token_code, chunk_codes =
      Obs.with_span ~cat:"sadc" "sadc.codes" (fun () -> build_codes dict st)
    in
    let instrument = Obs.metrics_enabled () in
    if instrument then begin
      Obs.Gauge.set g_dict_entries (float_of_int (Array.length dict));
      Obs.Gauge.set g_dict_rounds (float_of_int rounds)
    end;
    (* Filled slot by slot from a static placeholder: an [init]/[map]
       over the fresh results would force a minor collection per call
       (the runtime promotes a young initial value of a large array). *)
    let blocks = Array.make (Array.length segs) ("", 0) in
    Obs.with_span ~cat:"sadc" "sadc.encode" (fun () ->
        Ccomp_par.Pool.iter_n ~jobs (Array.length segs)
          ~local:(fun () -> Bit_writer.create ())
          (fun w b ->
            if not instrument then
              blocks.(b) <- encode_block w dict token_code chunk_codes st segs.(b) b
            else begin
              let t0 = Obs.now_us () in
              let ((payload, original) as blk) =
                encode_block w dict token_code chunk_codes st segs.(b) b
              in
              Obs.Histogram.observe m_c_block_us (Obs.now_us () -. t0);
              Obs.Counter.incr m_c_blocks;
              Obs.Counter.add m_c_bytes_in original;
              Obs.Counter.add m_c_bytes_out (String.length payload);
              if original > 0 then
                Obs.Histogram.observe m_c_block_ratio
                  (float_of_int (String.length payload) /. float_of_int original);
              blocks.(b) <- blk
            end));
    let original_size = Array.fold_left (fun acc i -> acc + I.byte_length i) 0 instrs in
    { config; dict; token_code; chunk_codes; blocks; original_size; rounds }

  let compress_image ?jobs config image =
    match I.parse image with
    | Some instrs -> compress ?jobs config instrs
    | None -> invalid_arg "Sadc.compress_image: image does not decode"

  let block_count c = Array.length c.blocks

  let block_original_bytes c b = snd c.blocks.(b)

  let block_payload_bytes c b = String.length (fst c.blocks.(b))

  (* Decode one block through a caller-owned reader — per-domain scratch
     of the parallel pipeline; [decompress_block] wraps it with a fresh
     reader for the public one-shot API. *)
  let decompress_block_with r c b =
    let payload, original = c.blocks.(b) in
    let refills0 = Bit_reader.refills r in
    Bit_reader.reset r payload;
    let decode_chunks s =
      List.fold_left
        (fun acc w ->
          let code =
            match c.chunk_codes.(s).(width_index s w) with
            | Some code -> code
            | None -> failwith "Sadc.decompress_block: missing chunk code"
          in
          let v = Huffman.decode_symbol code r in
          (acc lsl w) lor v)
        0 stream_chunks.(s)
    in
    let out = ref [] in
    let produced = ref 0 in
    (* Step budget: every well-formed token yields at least one byte of
       output, so a stream needing more tokens than [original] bytes is
       corrupt — without this a zero-output cycle would spin forever. *)
    let steps = ref 0 in
    while !produced < original do
      incr steps;
      if !steps > original then
        Ccomp_util.Decode_error.fail
          (Step_budget_exhausted "Sadc.decompress_block");
      let tok = Huffman.decode_symbol c.token_code r in
      if tok >= Array.length c.dict then
        Ccomp_util.Decode_error.invalid_code "Sadc.decompress_block: token beyond dictionary";
      let e = c.dict.(tok) in
      Array.iter
        (fun prim ->
          let counters = Array.make I.stream_count 0 in
          let next s =
            let p = counters.(s) in
            counters.(s) <- p + 1;
            match List.find_opt (fun (s', p', _) -> s' = s && p' = p) prim.fixed with
            | Some (_, _, v) -> v
            | None -> decode_chunks s
          in
          let instr = I.read ~symbol:prim.sym ~next in
          produced := !produced + I.byte_length instr;
          out := instr :: !out)
        e.prims
    done;
    if !produced <> original then failwith "Sadc.decompress_block: length mismatch";
    if Obs.metrics_enabled () then
      Obs.Counter.add m_reader_refills (Bit_reader.refills r - refills0);
    List.rev !out

  let decompress_block c b = decompress_block_with (Bit_reader.create "") c b

  (* Zero-copy block decoder: same token walk as
     [decompress_block_with], but every instruction's bytes land
     straight in the output buffer via [I.read_into] — no instruction
     list, no intermediate string and (for fixed-width ISAs) no
     per-instruction allocation at all. The reader, pull scratch and
     decode closures are built once per domain and reused for every
     block it draws, so a block decode allocates nothing — domains that
     do not touch the minor heap do not meet at GC synchronisation
     barriers, which is what makes jobs=2 pay on few-core hosts.
     The returned [decode b out pos] writes block [b]'s bytes at
     [out.(pos)] and returns the count, which the declared block size
     is enforced to equal. *)
  let make_block_decoder c =
    let r = Bit_reader.create "" in
    let rec chunks s acc = function
      | [] -> acc
      | w :: tl ->
        let code =
          match c.chunk_codes.(s).(width_index s w) with
          | Some code -> code
          | None -> failwith "Sadc.decompress_block: missing chunk code"
        in
        let v = Huffman.decode_symbol code r in
        chunks s ((acc lsl w) lor v) tl
    in
    (* Per-block scratch shared by every instruction: pull counters and
       the current primitive's absorbed operands. Item values are
       non-negative, so -1 can mark "not absorbed". *)
    let counters = Array.make I.stream_count 0 in
    let cur_fixed = ref [] in
    let rec fixed_at s p = function
      | [] -> -1
      | (s', p', v) :: tl -> if s' = s && p' = p then v else fixed_at s p tl
    in
    let next s =
      let p = counters.(s) in
      counters.(s) <- p + 1;
      let v = fixed_at s p !cur_fixed in
      if v >= 0 then v else chunks s 0 stream_chunks.(s)
    in
    fun b out pos ->
      let payload, original = c.blocks.(b) in
      let refills0 = Bit_reader.refills r in
      Bit_reader.reset r payload;
      let produced = ref 0 in
      let steps = ref 0 in
      while !produced < original do
        incr steps;
        if !steps > original then
          Ccomp_util.Decode_error.fail
            (Step_budget_exhausted "Sadc.decompress_block");
        let tok = Huffman.decode_symbol c.token_code r in
        if tok >= Array.length c.dict then
          Ccomp_util.Decode_error.invalid_code "Sadc.decompress_block: token beyond dictionary";
        let prims = c.dict.(tok).prims in
        for k = 0 to Array.length prims - 1 do
          let prim = Array.unsafe_get prims k in
          Array.fill counters 0 I.stream_count 0;
          cur_fixed := prim.fixed;
          produced := !produced + I.read_into ~symbol:prim.sym ~next out (pos + !produced)
        done
      done;
      if !produced <> original then failwith "Sadc.decompress_block: length mismatch";
      if Obs.metrics_enabled () then
        Obs.Counter.add m_reader_refills (Bit_reader.refills r - refills0);
      original

  let decompress ?(jobs = 1) c =
    Obs.with_span ~cat:"sadc" ("sadc." ^ I.name ^ ".decompress") @@ fun () ->
    let instrument = Obs.metrics_enabled () in
    let nblocks = Array.length c.blocks in
    (* Prefix-sum the declared block sizes so every block decodes
       directly into its own slice of one shared output buffer — no
       per-block result strings to concatenate. The decoder enforces
       decoded bytes = declared bytes, so slices cannot overlap in a
       returned result even on corrupt input (writes are bounds-checked
       and [decompress_checked] folds any failure into a typed
       error). *)
    let offs = Array.make (nblocks + 1) 0 in
    for b = 0 to nblocks - 1 do
      offs.(b + 1) <- offs.(b) + snd c.blocks.(b)
    done;
    let out = Bytes.create offs.(nblocks) in
    Ccomp_par.Pool.iter_n ~jobs
      ~local:(fun () -> make_block_decoder c)
      nblocks
      (fun decode b ->
        let t0 = if instrument then Obs.now_us () else 0.0 in
        let n = decode b out offs.(b) in
        if instrument then begin
          Obs.Histogram.observe m_d_block_us (Obs.now_us () -. t0);
          Obs.Counter.incr m_d_blocks;
          Obs.Counter.add m_d_bytes_in (String.length (fst c.blocks.(b)));
          Obs.Counter.add m_d_bytes_out n
        end);
    Bytes.unsafe_to_string out

  let decompress_checked ?max_output c =
    Ccomp_util.Decode_error.protect ~section:"sadc" (fun () ->
        (match max_output with
        | Some limit when c.original_size > limit ->
          Ccomp_util.Decode_error.fail
            (Length_overflow { section = "sadc"; declared = c.original_size; limit })
        | Some _ | None -> ());
        decompress c)

  let block_payload c b = fst c.blocks.(b)

  let dictionary c = Array.copy c.dict

  let stats c =
    let base = ref 0 and group = ref 0 and special = ref 0 and longest = ref 0 in
    Array.iter
      (fun e ->
        let n = Array.length e.prims in
        if n > !longest then longest := n;
        if n > 1 then incr group
        else if e.prims.(0).fixed = [] then incr base
        else incr special)
      c.dict;
    {
      entries = Array.length c.dict;
      base_entries = !base;
      group_entries = !group;
      specialized_entries = !special;
      longest_group = !longest;
      rounds = c.rounds;
    }

  let code_bytes c = Array.fold_left (fun acc (payload, _) -> acc + String.length payload) 0 c.blocks

  (* Dictionary wire format: count, then per entry the primitive list with
     absorbed operands (stream, position, 32-bit value). *)
  let dict_bytes c =
    let per_entry e =
      1 + Array.fold_left (fun acc p -> acc + 2 + 1 + (6 * List.length p.fixed)) 0 e.prims
    in
    2 + Array.fold_left (fun acc e -> acc + per_entry e) 0 c.dict

  let tables_bytes c =
    let code_len = function Some code -> String.length (Huffman.serialize_lengths code) | None -> 1 in
    String.length (Huffman.serialize_lengths c.token_code)
    + Array.fold_left
        (fun acc per_stream -> Array.fold_left (fun acc code -> acc + code_len code) acc per_stream)
        0 c.chunk_codes

  let original_size c = c.original_size

  let ratio c = float_of_int (code_bytes c) /. float_of_int c.original_size

  let ratio_with_tables c =
    float_of_int (code_bytes c + dict_bytes c + tables_bytes c) /. float_of_int c.original_size

  (* --- serialization ------------------------------------------------- *)

  let add_u16 b v =
    assert (v >= 0 && v < 65536);
    Buffer.add_char b (Char.chr (v lsr 8));
    Buffer.add_char b (Char.chr (v land 0xff))

  let add_u32 b v =
    add_u16 b ((v lsr 16) land 0xffff);
    add_u16 b (v land 0xffff)

  let serialize c =
    let b = Buffer.create (code_bytes c + 1024) in
    add_u16 b c.config.block_size;
    add_u16 b c.config.max_entries;
    add_u16 b c.config.max_rounds;
    add_u16 b c.rounds;
    add_u32 b c.original_size;
    add_u16 b (Array.length c.dict);
    Array.iter
      (fun e ->
        Buffer.add_char b (Char.chr (Array.length e.prims));
        Array.iter
          (fun prim ->
            add_u16 b prim.sym;
            Buffer.add_char b (Char.chr (List.length prim.fixed));
            List.iter
              (fun (s, p, v) ->
                Buffer.add_char b (Char.chr s);
                Buffer.add_char b (Char.chr p);
                add_u32 b v)
              prim.fixed)
          e.prims)
      c.dict;
    Buffer.add_string b (Huffman.serialize_lengths c.token_code);
    Array.iter
      (Array.iter (fun code ->
           match code with
           | Some code ->
             Buffer.add_char b '\x01';
             Buffer.add_string b (Huffman.serialize_lengths code)
           | None -> Buffer.add_char b '\x00'))
      c.chunk_codes;
    add_u32 b (Array.length c.blocks);
    Array.iter
      (fun (payload, original) ->
        add_u16 b (String.length payload);
        add_u16 b original;
        Buffer.add_string b payload)
      c.blocks;
    Buffer.contents b

  (* Byte ranges inside [serialize c], mirroring its layout: a 12-byte
     fixed header, the dictionary, the token and chunk tables, the block
     count, then per block a 4-byte prefix and the payload. *)
  let tables_span c =
    let token = String.length (Huffman.serialize_lengths c.token_code) in
    let chunks =
      Array.fold_left
        (fun acc per_stream ->
          Array.fold_left
            (fun acc code ->
              match code with
              | Some code -> acc + 1 + String.length (Huffman.serialize_lengths code)
              | None -> acc + 1)
            acc per_stream)
        0 c.chunk_codes
    in
    (12, dict_bytes c + token + chunks)

  let block_spans c =
    let tables_off, tables_len = tables_span c in
    let off = ref (tables_off + tables_len + 4) in
    Array.map
      (fun (payload, _) ->
        off := !off + 4;
        let o = !off in
        off := o + String.length payload;
        (o, String.length payload))
      c.blocks

  let deserialize s ~pos =
    let p = ref pos in
    let fail () = invalid_arg "Sadc.deserialize: truncated input" in
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
    let block_size = u16 () in
    let max_entries = u16 () in
    let max_rounds = u16 () in
    let rounds = u16 () in
    let original_size = u32 () in
    let dict =
      Array.init (u16 ()) (fun _ ->
          let prims =
            Array.init (byte ()) (fun _ ->
                let sym = u16 () in
                let fixed =
                  List.init (byte ()) (fun _ ->
                      let s' = byte () in
                      let p' = byte () in
                      let v = u32 () in
                      (s', p', v))
                in
                { sym; fixed })
          in
          (* An entry without primitives decodes to zero bytes; the block
             decoder's step budget would catch the resulting spin, but a
             dictionary that cannot have been built is corruption. *)
          if Array.length prims = 0 then invalid_arg "Sadc.deserialize: empty dictionary entry";
          { prims })
    in
    let token_code, next = Huffman.deserialize_lengths s ~pos:!p in
    p := next;
    let chunk_codes =
      Array.map
        (fun widths ->
          Array.of_list
            (List.map
               (fun _ ->
                 match byte () with
                 | 0 -> None
                 | _ ->
                   let code, next = Huffman.deserialize_lengths s ~pos:!p in
                   p := next;
                   Some code)
               widths))
        stream_widths
    in
    let nblocks = u32 () in
    (* Each block costs at least its 4-byte prefix; a count the remaining
       bytes cannot hold must fail before sizing an array by it. *)
    if nblocks > (String.length s - !p) / 4 then fail ();
    let blocks =
      Array.init nblocks (fun _ ->
          let len = u16 () in
          let original = u16 () in
          (take len, original))
    in
    let config = { block_size; max_entries; max_rounds } in
    ({ config; dict; token_code; chunk_codes; blocks; original_size; rounds }, !p)

  let deserialize_checked s ~pos =
    Ccomp_util.Decode_error.protect ~section:"sadc.deserialize" (fun () -> deserialize s ~pos)

  (* --- test hooks ---------------------------------------------------- *)

  module For_tests = struct
    let prepare config instr_list =
      let instrs = Array.of_list instr_list in
      (prog_of instrs, segments instrs config.block_size)

    let build_naive config instr_list =
      let prog, segs = prepare config instr_list in
      let dict, _, rounds = build_dictionary_naive config prog segs in
      (dict, rounds)

    let build_incremental ?check config instr_list =
      let prog, segs = prepare config instr_list in
      let dict, _, rounds = build_dictionary_incremental ?check config prog segs in
      (dict, rounds)
  end
end

module Mips = Make (Sadc_isa.Mips_streams)
module X86 = Make (Sadc_isa.X86_streams)
module X86_fields = Make (Sadc_isa.X86_field_streams)
