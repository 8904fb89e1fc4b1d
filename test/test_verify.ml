(* Differential verification harness: a clean sweep over every
   equivalence pair on fresh inputs, exact first-difference location,
   shrinker minimality and budget, and the golden corpus tripping on
   single corrupted bytes. The CLI path and the live tripwire are
   exercised end to end by tools/verify_check.sh. *)

module Verify = Ccomp_verify.Verify

let test_clean_sweep () =
  let inputs = Verify.progen_inputs ~profiles:[ "gcc" ] ~scale:0.02 ~seed:11 in
  Alcotest.(check int) "both ISAs generated" 2 (List.length inputs);
  let report = Verify.run ~pairs:Verify.all_pairs inputs in
  Alcotest.(check int) "no divergences on clean inputs" 0 (List.length report.Verify.divergences);
  Alcotest.(check bool) "a real number of checks ran" true (report.Verify.checks > 50)

let test_diff_location () =
  let a = String.make 100 '\x00' in
  (* byte 70 differs in bit 2 (MSB-first): 0x00 vs 0x20 *)
  let b = Bytes.of_string a in
  Bytes.set b 70 '\x20';
  let block, bit = Verify.diff_location ~block_size:32 a (Bytes.to_string b) in
  Alcotest.(check (option int)) "block of the first difference" (Some 2) block;
  Alcotest.(check (option int)) "absolute bit of the first difference" (Some 562) bit;
  Alcotest.(check (pair (option int) (option int)))
    "equal strings have no difference" (None, None)
    (Verify.diff_location ~block_size:32 a a);
  (* a pure length difference points at the first missing byte *)
  let block, bit = Verify.diff_location ~block_size:32 a (String.sub a 0 40) in
  Alcotest.(check (option int)) "length difference: block" (Some 1) block;
  Alcotest.(check (option int)) "length difference: bit" (Some 320) bit

let test_minimize () =
  (* one marker word in a 64-word haystack; the minimal input holding
     the predicate is exactly that word *)
  let marker = "\xde\xad\xbe\xef" in
  let haystack =
    String.concat "" (List.init 64 (fun i -> if i = 20 then marker else "\x00\x00\x00\x00"))
  in
  let contains_marker s =
    let n = String.length marker in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = marker || go (i + 1))
    in
    go 0
  in
  let shrunk = Verify.minimize ~word:4 ~budget:500 ~predicate:contains_marker haystack in
  Alcotest.(check string) "shrunk to exactly the marker word" marker shrunk;
  (* the budget really bounds predicate calls *)
  let calls = ref 0 in
  let pred s = incr calls; contains_marker s in
  let shrunk = Verify.minimize ~word:4 ~budget:7 ~predicate:pred haystack in
  Alcotest.(check bool) "budget respected" true (!calls <= 7);
  Alcotest.(check bool) "result still satisfies the predicate" true (contains_marker shrunk);
  (* byte-granular shrinking (x86 word size) reaches the same minimum *)
  let shrunk = Verify.minimize ~word:1 ~budget:2000 ~predicate:contains_marker haystack in
  Alcotest.(check string) "word=1 shrinks to the marker bytes" marker shrunk

let with_tmpdir f =
  let dir = Filename.temp_file "ccomp_golden" "" in
  Sys.remove dir;
  let cleanup () =
    if Sys.file_exists dir then begin
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir
    end
  in
  Fun.protect ~finally:cleanup (fun () -> f dir)

let flip_byte path pos =
  let ic = open_in_bin path in
  let data = Bytes.of_string (really_input_string ic (in_channel_length ic)) in
  close_in ic;
  Bytes.set data pos (Char.chr (Char.code (Bytes.get data pos) lxor 0x41));
  let oc = open_out_bin path in
  output_bytes oc data;
  close_out oc

let test_golden_roundtrip () =
  with_tmpdir @@ fun dir ->
  let blessed = Verify.bless_golden ~dir in
  Alcotest.(check bool) "corpus has entries" true (List.length blessed >= 4);
  match Verify.load_golden ~dir with
  | Error e -> Alcotest.failf "manifest does not load back: %s" e
  | Ok entries ->
    Alcotest.(check int) "manifest round-trips every entry" (List.length blessed)
      (List.length entries);
    let checks, divs = Verify.check_golden ~dir entries in
    Alcotest.(check int) "blessed corpus checks clean" 0 (List.length divs);
    Alcotest.(check bool) "corpus checks actually ran" true (checks >= 4 * List.length entries)

let test_golden_tripwire () =
  with_tmpdir @@ fun dir ->
  let _ = Verify.bless_golden ~dir in
  let entries = match Verify.load_golden ~dir with Ok e -> e | Error e -> Alcotest.fail e in
  let first = List.hd entries in
  (* a single flipped artifact byte must surface as a divergence *)
  flip_byte (Filename.concat dir (first.Verify.ge_name ^ ".secf")) 40;
  let _, divs = Verify.check_golden ~dir entries in
  Alcotest.(check bool) "corrupted artifact trips the corpus check" true (divs <> []);
  List.iter
    (fun d -> Alcotest.(check bool) "tagged as a golden finding" true (d.Verify.d_pair = Verify.Golden))
    divs;
  (* restore, then corrupt the input instead: its manifest CRC must trip *)
  let _ = Verify.bless_golden ~dir in
  flip_byte (Filename.concat dir (first.Verify.ge_name ^ ".bin")) 10;
  let _, divs = Verify.check_golden ~dir entries in
  Alcotest.(check bool) "corrupted input trips the corpus check" true (divs <> [])

(* SAMC's predicted cost must add up to the bytes it emits: holds for a
   real compression of both ISAs, fails once the model no longer is the
   one the payload was coded with. *)
let test_samc_conservation () =
  List.iter
    (fun isa ->
      let code = Verify.gen_code ~isa ~profile:"gcc" ~scale:0.05 ~seed:3 in
      let cfg =
        match isa with
        | Verify.Mips -> Ccomp_core.Samc.mips_config ()
        | Verify.X86 -> Ccomp_core.Samc.byte_config ()
      in
      let z = Ccomp_core.Samc.compress cfg code in
      let name = Verify.isa_name isa in
      Alcotest.(check (result unit string)) (name ^ ": own model conserves") (Ok ())
        (Verify.samc_conservation z code);
      (* a model trained on an all-zero program predicts this one badly:
         its ideal code length is far above the payload actually coded *)
      let other = Ccomp_core.Samc.compress cfg (String.make (String.length code) '\000') in
      let mismatched = { z with Ccomp_core.Samc.model = other.Ccomp_core.Samc.model } in
      Alcotest.(check bool) (name ^ ": mismatched model fails") true
        (Result.is_error (Verify.samc_conservation mismatched code)))
    [ Verify.Mips; Verify.X86 ]

let suite =
  [
    Alcotest.test_case "samc cost conservation" `Quick test_samc_conservation;
    Alcotest.test_case "all pairs clean on fresh inputs" `Quick test_clean_sweep;
    Alcotest.test_case "first difference located by block and bit" `Quick test_diff_location;
    Alcotest.test_case "shrinker is minimal and budget-bounded" `Quick test_minimize;
    Alcotest.test_case "golden corpus blesses and checks clean" `Quick test_golden_roundtrip;
    Alcotest.test_case "golden corpus trips on corrupted bytes" `Quick test_golden_tripwire;
  ]
