module type S = sig
  type instr

  val name : string
  val base_symbols : int
  val symbol : instr -> int
  val stream_count : int
  val stream_bits : int array
  val stream_names : string array
  val items : instr -> int list array
  val byte_length : instr -> int
  val read : symbol:int -> next:(int -> int) -> instr
  val read_into : symbol:int -> next:(int -> int) -> Bytes.t -> int -> int
  val encode_list : instr list -> string
  val parse : string -> instr list option
end

module Mips_streams = struct
  module M = Ccomp_isa.Mips

  type instr = M.t

  let name = "mips"
  let base_symbols = M.opcode_count
  let symbol = M.opcode_id
  let stream_count = 3
  let stream_bits = [| 5; 16; 26 |]
  let stream_names = [| "register"; "immediate"; "long-immediate" |]

  let items i =
    let opt = function Some v -> [ v ] | None -> [] in
    [| M.operand_regs i; opt (M.immediate i); opt (M.long_immediate i) |]

  let byte_length _ = 4

  let read ~symbol ~next =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "Mips_streams.read: bad symbol";
    let spec = M.specs.(symbol) in
    let regs = List.init (M.reg_arity spec) (fun _ -> next 0) in
    let imm = if M.has_immediate spec then Some (next 1) else None in
    let limm = if M.has_long_immediate spec then Some (next 2) else None in
    M.reassemble spec ~regs ~imm ~limm

  (* Range guards for pulled items: stream chunk widths bound every
     Huffman-decoded value, but a hostile dictionary can absorb an
     out-of-range fixed operand — reject it like [M.make] would. *)
  let r5 v = if v lsr 5 = 0 then v else invalid_arg "Mips_streams.read_into: register out of range"

  let i16 v =
    if v lsr 16 = 0 then v else invalid_arg "Mips_streams.read_into: immediate out of range"

  let t26 v = if v lsr 26 = 0 then v else invalid_arg "Mips_streams.read_into: target out of range"

  (* Fused generator + encoder: pulls operands in exactly {!read}'s order
     but packs the 32-bit word directly — no [M.t], no operand lists, no
     options. This is what makes the SADC block decoder allocation-free
     per instruction. *)
  let read_into ~symbol ~next buf pos =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "Mips_streams.read: bad symbol";
    let spec = M.specs.(symbol) in
    let fields =
      match spec.M.operands with
      | M.Op_none -> 0
      | M.Op_rd_rs_rt | M.Op_rd_rt_rs ->
        let rs = r5 (next 0) in
        let rt = r5 (next 0) in
        let rd = r5 (next 0) in
        (rs lsl 21) lor (rt lsl 16) lor (rd lsl 11)
      | M.Op_rd_rt_shamt ->
        let rt = r5 (next 0) in
        let rd = r5 (next 0) in
        let shamt = r5 (next 0) in
        (rt lsl 16) lor (rd lsl 11) lor (shamt lsl 6)
      | M.Op_rs_rt ->
        let rs = r5 (next 0) in
        let rt = r5 (next 0) in
        (rs lsl 21) lor (rt lsl 16)
      | M.Op_rd -> r5 (next 0) lsl 11
      | M.Op_rs -> r5 (next 0) lsl 21
      | M.Op_rd_rs ->
        let rs = r5 (next 0) in
        let rd = r5 (next 0) in
        (rs lsl 21) lor (rd lsl 11)
      | M.Op_rt_rs_imm | M.Op_rt_base_offset | M.Op_rs_rt_branch ->
        let rs = r5 (next 0) in
        let rt = r5 (next 0) in
        let imm = i16 (next 1) in
        (rs lsl 21) lor (rt lsl 16) lor imm
      | M.Op_rt_imm ->
        let rt = r5 (next 0) in
        let imm = i16 (next 1) in
        (rt lsl 16) lor imm
      | M.Op_rs_branch ->
        let rs = r5 (next 0) in
        let imm = i16 (next 1) in
        (rs lsl 21) lor imm
      | M.Op_target -> t26 (next 2)
    in
    let w = M.skeleton spec lor fields in
    Bytes.set buf pos (Char.unsafe_chr ((w lsr 24) land 0xff));
    Bytes.set buf (pos + 1) (Char.unsafe_chr ((w lsr 16) land 0xff));
    Bytes.set buf (pos + 2) (Char.unsafe_chr ((w lsr 8) land 0xff));
    Bytes.set buf (pos + 3) (Char.unsafe_chr (w land 0xff));
    4

  let encode_list = M.encode_program

  (* Words decoded last to first straight into the list: no array of
     options in between. *)
  let parse code =
    if String.length code mod 4 <> 0 then None
    else
      let rec collect k acc =
        if k < 0 then Some acc
        else
          let word = Int32.to_int (String.get_int32_be code (4 * k)) land 0xffff_ffff in
          match M.decode word with Some i -> collect (k - 1) (i :: acc) | None -> None
      in
      collect ((String.length code / 4) - 1) []
end

module X86_streams = struct
  module X = Ccomp_isa.X86

  type instr = X.t

  let name = "x86"
  let base_symbols = 512
  let symbol i = match X.second_opcode i with None -> X.opcode_symbol i | Some b -> 256 + b
  let stream_count = 2
  let stream_bits = [| 8; 8 |]
  let stream_names = [| "modrm-sib"; "imm-disp" |]

  (* The bytes of [s] up to index [k], as items in front of [acc]. *)
  let rec bytes_onto s k acc = if k < 0 then acc else bytes_onto s (k - 1) (Char.code s.[k] :: acc)

  (* The items of [X.streams] read straight off the instruction's fields,
     without building the stream strings: ModRM then SIB, displacement
     then immediate bytes. *)
  let items i =
    let sib = match i.X.sib with Some s -> [ s ] | None -> [] in
    let imm = bytes_onto i.X.imm (String.length i.X.imm - 1) [] in
    [|
      (match i.X.modrm with Some m -> m :: sib | None -> sib);
      bytes_onto i.X.disp (String.length i.X.disp - 1) imm;
    |]

  let byte_length = X.length

  let opcode_of_symbol symbol =
    if symbol < 256 then String.make 1 (Char.chr symbol)
    else Printf.sprintf "\x0f%c" (Char.chr (symbol - 256))

  let read ~symbol ~next =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "X86_streams.read: bad symbol";
    match
      X.read_streams ~opcode:(opcode_of_symbol symbol)
        ~next_modrm_sib:(fun () -> next 0)
        ~next_imm_disp:(fun () -> next 1)
    with
    | Some i -> i
    | None -> invalid_arg "X86_streams.read: unknown opcode"

  (* Variable-width ISA: rebuild the instruction, then blit its encoding.
     (The allocation-free fast path only matters for the fixed-width
     MIPS decoder; x86 keeps the simple composition.) *)
  let read_into ~symbol ~next buf pos =
    let s = X.encode (read ~symbol ~next) in
    let n = String.length s in
    Bytes.blit_string s 0 buf pos n;
    n

  let encode_list = X.encode_program

  let parse = X.decode_program
end

module X86_field_streams = struct
  module X = Ccomp_isa.X86

  type instr = X.t

  let name = "x86-fields"
  let base_symbols = 512
  let symbol = X86_streams.symbol
  let stream_count = 7
  let stream_bits = [| 2; 3; 3; 2; 3; 3; 8 |]
  let stream_names = [| "mod"; "reg"; "rm"; "scale"; "index"; "base"; "disp-imm" |]

  let items i =
    let modrm_fields =
      match i.X.modrm with
      | Some m -> ([ m lsr 6 ], [ (m lsr 3) land 7 ], [ m land 7 ])
      | None -> ([], [], [])
    in
    let sib_fields =
      match i.X.sib with
      | Some s -> ([ s lsr 6 ], [ (s lsr 3) land 7 ], [ s land 7 ])
      | None -> ([], [], [])
    in
    let md, reg, rm = modrm_fields in
    let scale, index, base = sib_fields in
    let bytes s = List.init (String.length s) (fun k -> Char.code s.[k]) in
    [| md; reg; rm; scale; index; base; bytes i.X.disp @ bytes i.X.imm |]

  let byte_length = X.length

  (* Reassemble ModRM/SIB bytes from field pulls: the first modrm-sib byte
     the sequencer requests is the ModRM, the second (if any) the SIB. *)
  let read ~symbol ~next =
    if symbol < 0 || symbol >= base_symbols then invalid_arg "X86_field_streams.read: bad symbol";
    let ms_calls = ref 0 in
    let next_modrm_sib () =
      incr ms_calls;
      (* bind pulls explicitly: operand evaluation order is unspecified *)
      if !ms_calls = 1 then begin
        let md = next 0 in
        let reg = next 1 in
        let rm = next 2 in
        (md lsl 6) lor (reg lsl 3) lor rm
      end
      else begin
        let scale = next 3 in
        let index = next 4 in
        let base = next 5 in
        (scale lsl 6) lor (index lsl 3) lor base
      end
    in
    match
      X.read_streams
        ~opcode:(X86_streams.opcode_of_symbol symbol)
        ~next_modrm_sib
        ~next_imm_disp:(fun () -> next 6)
    with
    | Some i -> i
    | None -> invalid_arg "X86_field_streams.read: unknown opcode"

  let read_into ~symbol ~next buf pos =
    let s = X.encode (read ~symbol ~next) in
    let n = String.length s in
    Bytes.blit_string s 0 buf pos n;
    n

  let encode_list = X.encode_program

  let parse = X.decode_program
end
