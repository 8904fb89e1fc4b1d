module Samc = Ccomp_core.Samc
module Stream_split = Ccomp_core.Stream_split
module Markov_model = Ccomp_core.Markov_model
module Coder = Ccomp_arith.Binary_coder
module Obs = Ccomp_obs.Obs
module Prng = Ccomp_util.Prng
module P = Ccomp_progen

let mips_code seed =
  let profile =
    { (P.Profile.find "compress") with P.Profile.name = "t"; target_ops = 600; functions = 8 }
  in
  let prog = P.Generator.generate ~seed profile in
  (snd (P.Mips_backend.lower prog)).P.Layout.code

let x86_code seed =
  let profile =
    { (P.Profile.find "xlisp") with P.Profile.name = "t"; target_ops = 600; functions = 8 }
  in
  (snd (P.X86_backend.lower (P.Generator.generate ~seed profile))).P.Layout.code

let test_roundtrip_mips () =
  let code = mips_code 1L in
  let z = Samc.compress (Samc.mips_config ()) code in
  Alcotest.(check int) "size preserved" (String.length code) z.Samc.original_size;
  Alcotest.(check string) "roundtrip" code (Samc.decompress z)

let test_roundtrip_bytes () =
  let g = Prng.create 2L in
  (* byte-mode on arbitrary data, like the x86 evaluation *)
  let data = String.init 4096 (fun _ -> Char.chr (Prng.int g 64)) in
  let z = Samc.compress (Samc.byte_config ()) data in
  Alcotest.(check string) "byte-mode roundtrip" data (Samc.decompress z)

let test_compression_beats_random () =
  let code = mips_code 3L in
  let z = Samc.compress (Samc.mips_config ()) code in
  Alcotest.(check bool)
    (Printf.sprintf "code compresses well (%.3f)" (Samc.ratio z))
    true (Samc.ratio z < 0.75);
  let g = Prng.create 4L in
  let noise = String.init (String.length code) (fun _ -> Char.chr (Prng.int g 256)) in
  let zn = Samc.compress (Samc.mips_config ()) noise in
  (* Being semiadaptive, the model is fitted to the very bytes it codes,
     so small noise inputs show an overfitting gain in the code stream;
     once the shipped model is charged, noise must not compress. *)
  Alcotest.(check bool)
    (Printf.sprintf "noise does not compress once the model is charged (%.3f)"
       (Samc.ratio_with_model zn))
    true
    (Samc.ratio_with_model zn > 0.98)

let test_block_isolation () =
  (* Any block decodes from its own bytes alone: the refill-engine
     property. Decode out of order and compare against the source. *)
  let code = mips_code 5L in
  let cfg = Samc.mips_config () in
  let z = Samc.compress cfg code in
  let nblocks = Array.length z.Samc.blocks in
  let order = Array.init nblocks (fun i -> nblocks - 1 - i) in
  Array.iter
    (fun b ->
      let original_bytes = min 32 (String.length code - (b * 32)) in
      let line = Samc.decompress_block cfg z.Samc.model ~original_bytes z.Samc.blocks.(b) in
      Alcotest.(check string)
        (Printf.sprintf "block %d" b)
        (String.sub code (b * 32) original_bytes)
        line)
    order

let test_block_count () =
  let cfg = Samc.mips_config () in
  Alcotest.(check int) "exact blocks" 4 (Samc.block_count cfg ~code_bytes:128);
  Alcotest.(check int) "partial tail block" 5 (Samc.block_count cfg ~code_bytes:132);
  Alcotest.(check int) "single" 1 (Samc.block_count cfg ~code_bytes:4)

let test_partial_tail_block () =
  let code = mips_code 6L in
  let code = String.sub code 0 (String.length code - (String.length code mod 32) + 4) in
  (* length = k*32 + 4: the final block holds a single instruction *)
  let z = Samc.compress (Samc.mips_config ()) code in
  Alcotest.(check string) "tail block roundtrip" code (Samc.decompress z)

let test_block_size_variants () =
  let code = mips_code 7L in
  List.iter
    (fun block_size ->
      let z = Samc.compress (Samc.mips_config ~block_size ()) code in
      Alcotest.(check string) (Printf.sprintf "block size %d" block_size) code (Samc.decompress z))
    [ 8; 16; 32; 64; 128 ]

let test_larger_blocks_compress_no_worse () =
  (* block resets cost flush bytes; bigger blocks amortise them *)
  let code = mips_code 8L in
  let r16 = Samc.ratio (Samc.compress (Samc.mips_config ~block_size:16 ()) code) in
  let r128 = Samc.ratio (Samc.compress (Samc.mips_config ~block_size:128 ()) code) in
  Alcotest.(check bool) (Printf.sprintf "128B %.3f <= 16B %.3f" r128 r16) true (r128 <= r16)

let test_context_bits_effect () =
  let code = mips_code 9L in
  List.iter
    (fun context_bits ->
      let z = Samc.compress (Samc.mips_config ~context_bits ()) code in
      Alcotest.(check string)
        (Printf.sprintf "context %d roundtrip" context_bits)
        code (Samc.decompress z))
    [ 0; 1; 2; 4 ]

let test_quantized_roundtrip_and_penalty () =
  let code = mips_code 10L in
  let exact = Samc.compress (Samc.mips_config ()) code in
  let quant = Samc.compress (Samc.mips_config ~quantize:true ()) code in
  Alcotest.(check string) "quantized roundtrip" code (Samc.decompress quant);
  (* shift-only probabilities lose some efficiency but not much (§3: ~95%) *)
  Alcotest.(check bool)
    (Printf.sprintf "penalty bounded (%.3f vs %.3f)" (Samc.ratio quant) (Samc.ratio exact))
    true
    (Samc.ratio quant >= Samc.ratio exact && Samc.ratio quant < Samc.ratio exact *. 1.35)

let test_custom_streams () =
  let code = mips_code 11L in
  let streams = Stream_split.consecutive ~word_bits:32 ~streams:8 in
  let z = Samc.compress (Samc.mips_config ~streams ()) code in
  Alcotest.(check string) "8x4 roundtrip" code (Samc.decompress z)

let test_invalid_configs_rejected () =
  let bad_block = Samc.mips_config ~block_size:10 () in
  (* 10 bytes = 2.5 words *)
  Alcotest.(check bool) "block not multiple of word" true (Samc.validate_config bad_block <> Ok ());
  let bad_streams = { (Samc.mips_config ()) with Samc.streams = [| [| 0; 1 |] |] } in
  Alcotest.(check bool) "incomplete partition" true (Samc.validate_config bad_streams <> Ok ())

let test_misaligned_input_rejected () =
  Alcotest.check_raises "odd byte count"
    (Invalid_argument "Samc.compress: code size is not a multiple of the word size") (fun () ->
      ignore (Samc.compress (Samc.mips_config ()) "abc"))

let test_serialization_roundtrip () =
  let code = mips_code 12L in
  let z = Samc.compress (Samc.mips_config ~quantize:true ()) code in
  let s = Samc.serialize z in
  let z', pos = Samc.deserialize s ~pos:0 in
  Alcotest.(check int) "all consumed" (String.length s) pos;
  Alcotest.(check string) "deserialized decompresses" code (Samc.decompress z')

let test_ratio_accounting () =
  let code = mips_code 13L in
  let z = Samc.compress (Samc.mips_config ()) code in
  let sum = Array.fold_left (fun a b -> a + String.length b) 0 z.Samc.blocks in
  Alcotest.(check int) "code_bytes is the block sum" sum (Samc.code_bytes z);
  Alcotest.(check bool) "with model is larger" true (Samc.ratio_with_model z > Samc.ratio z)

(* The per-bit reference for the per-stream costs: every coded bit walked
   through the trained model the way the encoder walks it (context reset
   at each block), summing -log2 p(bit) per stream. *)
let walked_costs (c : Samc.config) model code =
  let wb = c.Samc.word_bits / 8 in
  let wpb = c.Samc.block_size / wb in
  let n = Array.length c.Samc.streams in
  let bits_in = Array.make n 0 and bits_out = Array.make n 0.0 in
  let ctx_mask = (1 lsl c.Samc.context_bits) - 1 in
  let ctx = ref 0 in
  for wi = 0 to (String.length code / wb) - 1 do
    if wi mod wpb = 0 then ctx := 0;
    let word = ref 0 in
    for j = 0 to wb - 1 do
      word := (!word lsl 8) lor Char.code code.[(wi * wb) + j]
    done;
    Array.iteri
      (fun s positions ->
        let node = ref 1 and value = ref 0 in
        Array.iter
          (fun pos ->
            let bit = (!word lsr (c.Samc.word_bits - 1 - pos)) land 1 in
            let p0 = Markov_model.p0 model ~stream:s ~ctx:!ctx ~node:!node in
            let p = if bit = 0 then p0 else Coder.scale - p0 in
            bits_in.(s) <- bits_in.(s) + 1;
            bits_out.(s) <- bits_out.(s) -. Float.log2 (float_of_int p /. float_of_int Coder.scale);
            node := (2 * !node) + bit;
            value := (!value lsl 1) lor bit)
          positions;
        ctx := !value land ctx_mask)
      c.Samc.streams
  done;
  (bits_in, bits_out)

(* The published samc.streamN.* figures come from the training counts;
   they must equal the per-bit walk: bits_in exactly, bits_out after
   the rounding it is published with. *)
let test_stream_costs_match_walk () =
  let mips = mips_code 14L and x86 = x86_code 14L in
  let configs =
    List.map
      (fun context_bits -> ("mips 4x8", Samc.mips_config ~context_bits (), mips))
      [ 0; 1; 2; 3 ]
    @ List.map (fun context_bits -> ("byte", Samc.byte_config ~context_bits (), x86)) [ 0; 1; 2; 3 ]
    @ [
        ("mips quantized", Samc.mips_config ~quantize:true (), mips);
        ("mips pruned", Samc.mips_config ~prune_below:6 (), mips);
        ("byte quantized", Samc.byte_config ~quantize:true (), x86);
        ("byte pruned", Samc.byte_config ~prune_below:6 (), x86);
      ]
  in
  Fun.protect
    ~finally:(fun () ->
      Obs.set_metrics false;
      Obs.reset ())
  @@ fun () ->
  List.iter
    (fun (label, (c : Samc.config), code) ->
      Obs.reset ();
      Obs.set_metrics true;
      let z = Samc.compress c code in
      Obs.set_metrics false;
      let label = Printf.sprintf "%s, context %d" label c.Samc.context_bits in
      let bits_in, bits_out = walked_costs c z.Samc.model code in
      let in', out' = Samc.stream_costs c z.Samc.model code in
      Array.iteri
        (fun s walked_in ->
          let counter field =
            Obs.Counter.value (Obs.Counter.make (Printf.sprintf "samc.stream%d.%s" s field))
          in
          Alcotest.(check int)
            (Printf.sprintf "%s: stream %d bits_in" label s)
            walked_in (counter "bits_in");
          Alcotest.(check int)
            (Printf.sprintf "%s: stream %d bits_out" label s)
            (int_of_float (Float.round bits_out.(s)))
            (counter "bits_out");
          Alcotest.(check int)
            (Printf.sprintf "%s: stream_costs %d bits_in" label s)
            walked_in in'.(s);
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "%s: stream_costs %d bits_out" label s)
            1.0 (out'.(s) /. bits_out.(s)))
        bits_in)
    configs

let test_stream_costs_reject_mismatched_model () =
  let code = mips_code 15L in
  let z = Samc.compress (Samc.mips_config ()) code in
  Alcotest.check_raises "model of another shape"
    (Invalid_argument "Samc.stream_costs: model does not match the configuration") (fun () ->
      ignore (Samc.stream_costs (Samc.mips_config ~context_bits:1 ()) z.Samc.model code))

let prop_roundtrip_random_words =
  QCheck.Test.make ~name:"samc round-trips arbitrary word streams" ~count:30
    QCheck.(pair small_int int)
    (fun (n, seed) ->
      let g = Prng.create (Int64.of_int seed) in
      let n = 4 * max 1 n in
      (* skewed bytes so the model has something to learn *)
      let data = String.init n (fun _ -> Char.chr (min 255 (Prng.geometric g 0.2 * 16))) in
      let z = Samc.compress (Samc.mips_config ()) data in
      String.equal (Samc.decompress z) data)

let suite =
  [
    Alcotest.test_case "mips roundtrip" `Quick test_roundtrip_mips;
    Alcotest.test_case "byte-mode roundtrip" `Quick test_roundtrip_bytes;
    Alcotest.test_case "compresses code, not noise" `Quick test_compression_beats_random;
    Alcotest.test_case "block isolation" `Quick test_block_isolation;
    Alcotest.test_case "block count" `Quick test_block_count;
    Alcotest.test_case "partial tail block" `Quick test_partial_tail_block;
    Alcotest.test_case "block size variants" `Quick test_block_size_variants;
    Alcotest.test_case "larger blocks amortise flush" `Quick test_larger_blocks_compress_no_worse;
    Alcotest.test_case "context bits variants" `Quick test_context_bits_effect;
    Alcotest.test_case "quantized mode" `Quick test_quantized_roundtrip_and_penalty;
    Alcotest.test_case "custom stream split" `Quick test_custom_streams;
    Alcotest.test_case "invalid configs rejected" `Quick test_invalid_configs_rejected;
    Alcotest.test_case "misaligned input rejected" `Quick test_misaligned_input_rejected;
    Alcotest.test_case "serialization roundtrip" `Quick test_serialization_roundtrip;
    Alcotest.test_case "ratio accounting" `Quick test_ratio_accounting;
    Alcotest.test_case "stream costs from counts match the per-bit walk" `Quick
      test_stream_costs_match_walk;
    Alcotest.test_case "stream costs reject a mismatched model" `Quick
      test_stream_costs_reject_mismatched_model;
    QCheck_alcotest.to_alcotest prop_roundtrip_random_words;
  ]
