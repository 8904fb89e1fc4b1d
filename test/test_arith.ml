module Coder = Ccomp_arith.Binary_coder
module Prng = Ccomp_util.Prng

let roundtrip bits p0s =
  let e = Coder.Encoder.create () in
  Array.iteri (fun i b -> Coder.Encoder.encode e ~p0:p0s.(i) b) bits;
  let s = Coder.Encoder.finish e in
  let d = Coder.Decoder.create s in
  let ok = ref true in
  Array.iteri (fun i b -> if Coder.Decoder.decode d ~p0:p0s.(i) <> b then ok := false) bits;
  (!ok, s)

let test_empty () =
  let e = Coder.Encoder.create () in
  let s = Coder.Encoder.finish e in
  Alcotest.(check bool) "empty stream is tiny" true (String.length s <= 3)

let test_single_bits () =
  List.iter
    (fun bit ->
      let ok, _ = roundtrip [| bit |] [| Coder.scale / 2 |] in
      Alcotest.(check bool) (Printf.sprintf "single bit %d" bit) true ok)
    [ 0; 1 ]

let test_alternating () =
  let n = 1000 in
  let bits = Array.init n (fun i -> i land 1) in
  let p0s = Array.make n (Coder.scale / 2) in
  let ok, s = roundtrip bits p0s in
  Alcotest.(check bool) "alternating bits" true ok;
  (* unbiased model: about 1 bit per bit, so about n/8 bytes *)
  Alcotest.(check bool) "size near n/8" true (abs (String.length s - (n / 8)) < 16)

let test_all_zeros_high_p0 () =
  let n = 10000 in
  let bits = Array.make n 0 in
  let p0s = Array.make n (Coder.scale - 1) in
  let ok, s = roundtrip bits p0s in
  Alcotest.(check bool) "all zeros decode" true ok;
  (* -log2(4095/4096) * 10000 bits ~ 3.5 bits total: a few bytes *)
  Alcotest.(check bool)
    (Printf.sprintf "extreme skew compresses to almost nothing (%d bytes)" (String.length s))
    true
    (String.length s <= 6)

let test_mispredicted_bits_expand () =
  let n = 500 in
  let bits = Array.make n 1 in
  let p0s = Array.make n (Coder.scale - 1) in
  (* predicting 0 with p=4095/4096 while coding 1s costs 12 bits each *)
  let ok, s = roundtrip bits p0s in
  Alcotest.(check bool) "mispredictions still decode" true ok;
  Alcotest.(check bool) "stream expands" true (String.length s > n)

let test_probability_extremes_rejected_by_clamp () =
  Alcotest.(check int) "counts 0/0 -> 1/2" (Coder.scale / 2) (Coder.prob_of_counts ~zeros:0 ~ones:0);
  Alcotest.(check int) "all zeros clamps below scale" (Coder.scale - 1)
    (Coder.prob_of_counts ~zeros:1000 ~ones:0);
  Alcotest.(check int) "all ones clamps above 0" 1 (Coder.prob_of_counts ~zeros:0 ~ones:1000)

let test_prob_of_counts_ratio () =
  let p = Coder.prob_of_counts ~zeros:3 ~ones:1 in
  Alcotest.(check int) "3/4 of scale" (3 * Coder.scale / 4) p

let test_quantize_pow2 () =
  (* quantized LPS must be a power of two fraction of scale *)
  List.iter
    (fun p0 ->
      let q = Coder.quantize_pow2 p0 in
      let lps = min q (Coder.scale - q) in
      Alcotest.(check bool)
        (Printf.sprintf "lps of %d is power of two (%d)" p0 lps)
        true
        (lps land (lps - 1) = 0);
      (* side is preserved *)
      Alcotest.(check bool) "side preserved" true ((p0 <= Coder.scale / 2) = (q <= Coder.scale / 2)))
    [ 1; 7; 100; 1000; 2048; 3000; 4000; Coder.scale - 1 ]

let test_quantized_roundtrip () =
  let g = Prng.create 3L in
  let n = 2000 in
  let p0s = Array.init n (fun _ -> Coder.quantize_pow2 (1 + Prng.int g (Coder.scale - 1))) in
  let bits = Array.init n (fun i -> if Prng.int g Coder.scale < p0s.(i) then 0 else 1) in
  let ok, _ = roundtrip bits p0s in
  Alcotest.(check bool) "quantized probabilities round-trip" true ok

let test_efficiency_near_entropy () =
  (* code 100k bits with p(0)=0.9; measured size should be within 2% of
     the entropy bound H(0.9) = 0.469 bits/bit *)
  let g = Prng.create 5L in
  let n = 100_000 in
  let p0 = Coder.prob_of_counts ~zeros:9 ~ones:1 in
  let bits = Array.init n (fun _ -> if Prng.float g < 0.9 then 0 else 1) in
  let p0s = Array.make n p0 in
  let ok, s = roundtrip bits p0s in
  Alcotest.(check bool) "roundtrip" true ok;
  let bound = 0.469 *. float_of_int n /. 8.0 in
  let measured = float_of_int (String.length s) in
  Alcotest.(check bool)
    (Printf.sprintf "within 3%% of entropy (%f vs %f)" measured bound)
    true
    (measured < bound *. 1.03)

let test_trailing_zero_truncation () =
  (* the decoder must tolerate streams whose trailing zero bytes were
     dropped: decode relies on implicit zero refills *)
  let bits = Array.make 64 0 in
  let p0s = Array.make 64 (Coder.scale / 2) in
  let e = Coder.Encoder.create () in
  Array.iteri (fun i b -> Coder.Encoder.encode e ~p0:p0s.(i) b) bits;
  let s = Coder.Encoder.finish e in
  Alcotest.(check bool) "no trailing zero byte stored" true
    (String.length s = 0 || s.[String.length s - 1] <> '\x00')

let test_decoder_position () =
  let bits = Array.init 256 (fun i -> (i / 3) land 1) in
  let p0s = Array.make 256 2048 in
  let e = Coder.Encoder.create () in
  Array.iteri (fun i b -> Coder.Encoder.encode e ~p0:p0s.(i) b) bits;
  let s = Coder.Encoder.finish e in
  let d = Coder.Decoder.create s in
  Array.iteri (fun i _ -> ignore (Coder.Decoder.decode d ~p0:p0s.(i))) bits;
  Alcotest.(check bool) "consumed within stream bounds" true
    (Coder.Decoder.consumed_bytes d <= String.length s)

let prop_random_roundtrip =
  QCheck.Test.make ~name:"random bits/probabilities round-trip" ~count:200
    QCheck.(pair (int_bound 1000) int)
    (fun (n, seed) ->
      let g = Prng.create (Int64.of_int seed) in
      let p0s = Array.init n (fun _ -> 1 + Prng.int g (Coder.scale - 1)) in
      let bits = Array.init n (fun i -> if Prng.int g Coder.scale < p0s.(i) then 0 else 1) in
      fst (roundtrip bits p0s))

let prop_adversarial_roundtrip =
  QCheck.Test.make ~name:"bits independent of predictions round-trip" ~count:100
    QCheck.(pair (int_bound 500) int)
    (fun (n, seed) ->
      let g = Prng.create (Int64.of_int seed) in
      (* predictions uncorrelated with the data: worst case for carries *)
      let p0s = Array.init n (fun _ -> 1 + Prng.int g (Coder.scale - 1)) in
      let bits = Array.init n (fun _ -> Prng.int g 2) in
      fst (roundtrip bits p0s))

(* encode_tree must emit exactly the bytes of the per-bit encoder over
   the same walk: random trees of random widths, values and predictions
   (skewed and uncorrelated, so carries and pending 0xff runs occur). *)
let prop_encode_tree_matches_encode =
  QCheck.Test.make ~name:"encode_tree equals per-bit encode" ~count:200
    QCheck.(pair (int_bound 300) int)
    (fun (n, seed) ->
      let g = Prng.create (Int64.of_int seed) in
      let width = 1 + Prng.int g 12 in
      let probs = Array.init (1 lsl width) (fun _ -> 1 + Prng.int g (Coder.scale - 1)) in
      let values = Array.init n (fun _ -> Prng.int g (1 lsl width)) in
      let by_tree = Coder.Encoder.create () and by_bit = Coder.Encoder.create () in
      Array.iter
        (fun v ->
          Coder.Encoder.encode_tree by_tree probs ~tree:0 ~width v;
          let node = ref 1 in
          for k = width - 1 downto 0 do
            let bit = (v lsr k) land 1 in
            Coder.Encoder.encode by_bit ~p0:probs.(!node) bit;
            node := (2 * !node) + bit
          done)
        values;
      String.equal (Coder.Encoder.finish by_tree) (Coder.Encoder.finish by_bit))

let suite =
  [
    Alcotest.test_case "empty stream" `Quick test_empty;
    Alcotest.test_case "single bits" `Quick test_single_bits;
    Alcotest.test_case "alternating bits" `Quick test_alternating;
    Alcotest.test_case "extreme skew compresses" `Quick test_all_zeros_high_p0;
    Alcotest.test_case "mispredictions expand" `Quick test_mispredicted_bits_expand;
    Alcotest.test_case "prob_of_counts clamps" `Quick test_probability_extremes_rejected_by_clamp;
    Alcotest.test_case "prob_of_counts ratio" `Quick test_prob_of_counts_ratio;
    Alcotest.test_case "quantize_pow2 invariants" `Quick test_quantize_pow2;
    Alcotest.test_case "quantized roundtrip" `Quick test_quantized_roundtrip;
    Alcotest.test_case "efficiency near entropy" `Quick test_efficiency_near_entropy;
    Alcotest.test_case "trailing zeros truncated" `Quick test_trailing_zero_truncation;
    Alcotest.test_case "decoder position bounded" `Quick test_decoder_position;
    QCheck_alcotest.to_alcotest prop_random_roundtrip;
    QCheck_alcotest.to_alcotest prop_adversarial_roundtrip;
    QCheck_alcotest.to_alcotest prop_encode_tree_matches_encode;
  ]
