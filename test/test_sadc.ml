module Sadc = Ccomp_core.Sadc
module Mips = Ccomp_isa.Mips
module X86 = Ccomp_isa.X86
module P = Ccomp_progen
module Prng = Ccomp_util.Prng

let small name ops =
  { (P.Profile.find name) with P.Profile.name = "t"; target_ops = ops; functions = 8 }

let mips_code seed = (snd (P.Mips_backend.lower (P.Generator.generate ~seed (small "xlisp" 700)))).P.Layout.code

let x86_code seed = (snd (P.X86_backend.lower (P.Generator.generate ~seed (small "xlisp" 700)))).P.Layout.code

let cfg = Sadc.default_config ()

let test_roundtrip_mips () =
  let code = mips_code 1L in
  let z = Sadc.Mips.compress_image cfg code in
  Alcotest.(check int) "original size" (String.length code) (Sadc.Mips.original_size z);
  Alcotest.(check string) "roundtrip" code (Sadc.Mips.decompress z)

let test_roundtrip_x86 () =
  let code = x86_code 2L in
  let z = Sadc.X86.compress_image cfg code in
  Alcotest.(check string) "roundtrip" code (Sadc.X86.decompress z)

let test_block_isolation_mips () =
  let code = mips_code 3L in
  let z = Sadc.Mips.compress_image cfg code in
  let offset = ref 0 in
  for b = 0 to Sadc.Mips.block_count z - 1 do
    let instrs = Sadc.Mips.decompress_block z b in
    let bytes = Mips.encode_program instrs in
    Alcotest.(check string)
      (Printf.sprintf "block %d" b)
      (String.sub code !offset (String.length bytes))
      bytes;
    offset := !offset + String.length bytes
  done;
  Alcotest.(check int) "blocks tile the program" (String.length code) !offset

let test_block_original_sizes_mips () =
  (* fixed-width ISA: every block except possibly the last covers exactly
     block_size bytes *)
  let code = mips_code 4L in
  let z = Sadc.Mips.compress_image cfg code in
  for b = 0 to Sadc.Mips.block_count z - 2 do
    Alcotest.(check int) "full block" 32 (Sadc.Mips.block_original_bytes z b)
  done

let test_block_sizes_x86_bounded () =
  let code = x86_code 5L in
  let z = Sadc.X86.compress_image cfg code in
  for b = 0 to Sadc.X86.block_count z - 1 do
    Alcotest.(check bool) "within block size" true (Sadc.X86.block_original_bytes z b <= 32)
  done

let test_dictionary_bounds () =
  let code = mips_code 6L in
  let z = Sadc.Mips.compress_image cfg code in
  let st = Sadc.Mips.stats z in
  Alcotest.(check bool) "entries within cap" true (st.Sadc.entries <= 256);
  Alcotest.(check bool) "has base entries" true (st.Sadc.base_entries > 0);
  Alcotest.(check int) "partition of kinds" st.Sadc.entries
    (st.Sadc.base_entries + st.Sadc.group_entries + st.Sadc.specialized_entries)

let test_dictionary_entries_well_formed () =
  let code = mips_code 7L in
  let z = Sadc.Mips.compress_image cfg code in
  Array.iter
    (fun e ->
      Alcotest.(check bool) "non-empty entry" true (Array.length e.Sadc.Mips.prims > 0);
      Array.iter
        (fun p ->
          Alcotest.(check bool) "symbol in range" true
            (p.Sadc.Mips.sym >= 0 && p.Sadc.Mips.sym < Mips.opcode_count);
          List.iter
            (fun (s, pos, v) ->
              Alcotest.(check bool) "stream in range" true (s >= 0 && s < 3);
              Alcotest.(check bool) "pos plausible" true (pos >= 0 && pos < 4);
              Alcotest.(check bool) "value in stream range" true (v >= 0 && v < 1 lsl 26))
            p.Sadc.Mips.fixed)
        e.Sadc.Mips.prims)
    (Sadc.Mips.dictionary z)

let test_groups_learned_on_repetitive_code () =
  (* a program that is one idiom repeated must yield group entries *)
  let spec = Mips.spec_of_mnemonic in
  let idiom =
    [
      Mips.make (spec "lw") ~rs:4 ~rt:2 ~imm:8 ();
      Mips.make (spec "addiu") ~rs:2 ~rt:2 ~imm:1 ();
      Mips.make (spec "sw") ~rs:4 ~rt:2 ~imm:8 ();
      Mips.make (spec "bne") ~rs:2 ~rt:3 ~imm:0xfffc ();
    ]
  in
  let program = List.concat (List.init 200 (fun _ -> idiom)) in
  let z = Sadc.Mips.compress (Sadc.default_config ()) program in
  let st = Sadc.Mips.stats z in
  Alcotest.(check bool) "found groups" true (st.Sadc.group_entries > 0);
  Alcotest.(check bool)
    (Printf.sprintf "repetition compresses hard (%.3f)" (Sadc.Mips.ratio z))
    true
    (Sadc.Mips.ratio z < 0.2);
  Alcotest.(check string) "roundtrip" (Mips.encode_program program) (Sadc.Mips.decompress z)

let test_specialization_learned () =
  (* jr $31 with a hot register: the paper's own example. Neighbours are
     drawn from a 20-opcode rotation with random operands, so no opcode
     pair repeats often enough to beat the register specialization. *)
  let spec = Mips.spec_of_mnemonic in
  let g = Prng.create 8L in
  let fillers =
    [| "addu"; "subu"; "and"; "or"; "xor"; "slt"; "addiu"; "ori"; "andi"; "lw"; "sw"; "lb";
       "sb"; "lh"; "sh"; "lui"; "sll"; "srl"; "sra"; "nor" |]
  in
  let filler i =
    let sp = spec fillers.(i mod Array.length fillers) in
    let regs = List.init (Mips.reg_arity sp) (fun _ -> Prng.int g 32) in
    let imm = if Mips.has_immediate sp then Some (Prng.int g 65536) else None in
    Mips.reassemble sp ~regs ~imm ~limm:None
  in
  let program =
    List.concat (List.init 300 (fun i -> [ filler i; Mips.make (spec "jr") ~rs:31 () ]))
  in
  let z = Sadc.Mips.compress (Sadc.default_config ()) program in
  let has_jr31 =
    Array.exists
      (fun e ->
        Array.length e.Sadc.Mips.prims >= 1
        && Array.exists
             (fun p ->
               Mips.specs.(p.Sadc.Mips.sym).Mips.mnemonic = "jr"
               && List.exists (fun (s, _, v) -> s = 0 && v = 31) p.Sadc.Mips.fixed)
             e.Sadc.Mips.prims)
      (Sadc.Mips.dictionary z)
  in
  Alcotest.(check bool) "jr $31 specialised or grouped" true has_jr31;
  Alcotest.(check string) "roundtrip" (Mips.encode_program program) (Sadc.Mips.decompress z)

let test_max_entries_respected () =
  let code = mips_code 9L in
  let z = Sadc.Mips.compress_image (Sadc.default_config ~max_entries:64 ()) code in
  Alcotest.(check bool) "small cap respected" true ((Sadc.Mips.stats z).Sadc.entries <= 64);
  Alcotest.(check string) "roundtrip" code (Sadc.Mips.decompress z)

let test_smaller_dictionary_worse_ratio () =
  let code = mips_code 10L in
  let r64 = Sadc.Mips.ratio (Sadc.Mips.compress_image (Sadc.default_config ~max_entries:64 ()) code) in
  let r256 = Sadc.Mips.ratio (Sadc.Mips.compress_image cfg code) in
  Alcotest.(check bool) (Printf.sprintf "256 (%.3f) <= 64 (%.3f)" r256 r64) true (r256 <= r64 +. 0.005)

let test_block_size_variants () =
  let code = mips_code 11L in
  List.iter
    (fun block_size ->
      let z = Sadc.Mips.compress_image (Sadc.default_config ~block_size ()) code in
      Alcotest.(check string) (Printf.sprintf "block %d" block_size) code (Sadc.Mips.decompress z))
    [ 16; 32; 64; 128 ]

let test_x86_block_isolation () =
  let code = x86_code 12L in
  let z = Sadc.X86.compress_image cfg code in
  let total = ref 0 in
  for b = 0 to Sadc.X86.block_count z - 1 do
    let bytes = X86.encode_program (Sadc.X86.decompress_block z b) in
    Alcotest.(check int) "declared block size" (Sadc.X86.block_original_bytes z b)
      (String.length bytes);
    total := !total + String.length bytes
  done;
  Alcotest.(check int) "blocks cover program" (String.length code) !total

let test_undecodable_image_rejected () =
  Alcotest.check_raises "garbage rejected"
    (Invalid_argument "Sadc.compress_image: image does not decode") (fun () ->
      ignore (Sadc.X86.compress_image cfg "\xf4\xf4\xf4"))

let test_serialization_roundtrip () =
  let code = mips_code 13L in
  let z = Sadc.Mips.compress_image cfg code in
  let s = Sadc.Mips.serialize z in
  let z', pos = Sadc.Mips.deserialize s ~pos:0 in
  Alcotest.(check int) "all consumed" (String.length s) pos;
  Alcotest.(check string) "decompresses after reload" code (Sadc.Mips.decompress z');
  Alcotest.(check int) "same dict size" (Sadc.Mips.stats z).Sadc.entries
    (Sadc.Mips.stats z').Sadc.entries

let test_ratio_better_than_tokens_alone () =
  (* sanity: sadc on real-ish code is clearly below 1.0 and accounting
     fields are consistent *)
  let code = mips_code 14L in
  let z = Sadc.Mips.compress_image cfg code in
  Alcotest.(check bool) (Printf.sprintf "ratio %.3f < 0.8" (Sadc.Mips.ratio z)) true (Sadc.Mips.ratio z < 0.8);
  Alcotest.(check bool) "with tables larger" true
    (Sadc.Mips.ratio_with_tables z > Sadc.Mips.ratio z);
  Alcotest.(check bool) "dict bytes positive" true (Sadc.Mips.dict_bytes z > 0);
  Alcotest.(check bool) "tables bytes positive" true (Sadc.Mips.tables_bytes z > 0)

(* --- incremental vs naive dictionary builder ------------------------- *)

let mips_instrs code = Mips.decode_program code |> Array.to_list |> List.map Option.get

(* The incremental builder must be observationally identical to the
   full-rescan reference: same dictionary entries (symbols, fixed
   operands, order) and same number of specialization rounds. *)
let prop_incremental_matches_naive =
  QCheck.Test.make ~name:"sadc mips: incremental dictionary builder matches naive" ~count:8
    QCheck.(pair (int_bound 1000) (int_bound 1))
    (fun (seed, prof) ->
      let base = if prof = 0 then "xlisp" else "go" in
      let code =
        (snd
           (P.Mips_backend.lower
              (P.Generator.generate ~seed:(Int64.of_int (seed + 41)) (small base 500))))
          .P.Layout.code
      in
      let instrs = mips_instrs code in
      Sadc.Mips.For_tests.build_naive cfg instrs
      = Sadc.Mips.For_tests.build_incremental cfg instrs)

let test_incremental_counts_checked () =
  (* ~check:true re-derives every candidate count by full rescan at the
     start of each round and raises on any disagreement with the
     incrementally maintained counts — this exercises the per-round
     bookkeeping, not just the final dictionary. *)
  List.iter
    (fun (seed, c, label) ->
      let instrs = mips_instrs (mips_code seed) in
      let naive = Sadc.Mips.For_tests.build_naive c instrs in
      let checked = Sadc.Mips.For_tests.build_incremental ~check:true c instrs in
      Alcotest.(check bool) (label ^ ": dict and rounds equal") true (naive = checked);
      Alcotest.(check bool) (label ^ ": ran at least one round") true (snd checked >= 1))
    [
      (21L, cfg, "default config");
      (22L, cfg, "default config seed 22");
      (23L, Sadc.default_config ~max_rounds:64 (), "max_rounds 64");
    ]

(* x86 instructions of one symbol can carry different operand counts, so
   a specialisation may probe an item the instruction does not have —
   the same per-round check on x86 code. *)
let test_incremental_counts_checked_x86 () =
  List.iter
    (fun seed ->
      let instrs = Option.get (X86.decode_program (x86_code seed)) in
      let naive = Sadc.X86.For_tests.build_naive cfg instrs in
      let checked = Sadc.X86.For_tests.build_incremental ~check:true cfg instrs in
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: dict and rounds equal" seed)
        true (naive = checked))
    [ 24L; 25L ]

let suite =
  [
    Alcotest.test_case "mips roundtrip" `Quick test_roundtrip_mips;
    Alcotest.test_case "x86 roundtrip" `Quick test_roundtrip_x86;
    Alcotest.test_case "mips block isolation" `Quick test_block_isolation_mips;
    Alcotest.test_case "mips block sizes" `Quick test_block_original_sizes_mips;
    Alcotest.test_case "x86 block sizes bounded" `Quick test_block_sizes_x86_bounded;
    Alcotest.test_case "dictionary bounds" `Quick test_dictionary_bounds;
    Alcotest.test_case "dictionary well-formed" `Quick test_dictionary_entries_well_formed;
    Alcotest.test_case "groups learned" `Quick test_groups_learned_on_repetitive_code;
    Alcotest.test_case "specialization learned" `Quick test_specialization_learned;
    Alcotest.test_case "max entries respected" `Quick test_max_entries_respected;
    Alcotest.test_case "dictionary size vs ratio" `Quick test_smaller_dictionary_worse_ratio;
    Alcotest.test_case "block size variants" `Quick test_block_size_variants;
    Alcotest.test_case "x86 block isolation" `Quick test_x86_block_isolation;
    Alcotest.test_case "undecodable image rejected" `Quick test_undecodable_image_rejected;
    Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "ratio accounting" `Quick test_ratio_better_than_tokens_alone;
    Alcotest.test_case "incremental counts verified per round" `Quick
      test_incremental_counts_checked;
    Alcotest.test_case "incremental counts verified per round, x86" `Quick
      test_incremental_counts_checked_x86;
    QCheck_alcotest.to_alcotest prop_incremental_matches_naive;
  ]

let test_x86_field_streams_roundtrip () =
  let code = x86_code 15L in
  let z = Sadc.X86_fields.compress_image cfg code in
  Alcotest.(check string) "field-stream roundtrip" code (Sadc.X86_fields.decompress z);
  (* serialization of the 7-stream variant *)
  let z', _ = Sadc.X86_fields.deserialize (Sadc.X86_fields.serialize z) ~pos:0 in
  Alcotest.(check string) "after reload" code (Sadc.X86_fields.decompress z')

let test_x86_field_streams_block_isolation () =
  let code = x86_code 16L in
  let z = Sadc.X86_fields.compress_image cfg code in
  let total = ref 0 in
  for b = 0 to Sadc.X86_fields.block_count z - 1 do
    let bytes = X86.encode_program (Sadc.X86_fields.decompress_block z b) in
    total := !total + String.length bytes
  done;
  Alcotest.(check int) "blocks tile the program" (String.length code) !total

let field_suite =
  [
    Alcotest.test_case "x86 field streams roundtrip" `Quick test_x86_field_streams_roundtrip;
    Alcotest.test_case "x86 field streams blocks" `Quick test_x86_field_streams_block_isolation;
  ]

let suite = suite @ field_suite
