(* Allocation budgets for whole-program compress. Unlike MB/s, the words
   a compress allocates for a fixed input are the same on every host,
   so these bounds guard the compress paths against churn coming back
   without depending on the machine. One fixed progen program per ISA at
   scale 1.0, jobs=1 on the calling domain; allocation is minor + major
   - promoted words (promoted words are counted in both of the others),
   reported per KB of input. Each bound is the value measured when the
   budgets were set plus a margin, both stated beside it.

   The minor words come from [Gc.minor_words], which reads the
   allocation pointer. The minor count in [Gc.counters] lags it on
   OCaml 5.1 (3000 words of list cells read as 376) and catches up at
   minor collections, so a delta of it charges a call with whatever the
   program allocated before it whenever the call happens to collect. *)

module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Obs = Ccomp_obs.Obs
module Verify = Ccomp_verify.Verify
module Serve = Ccomp_serve.Serve

let words () =
  let _, promoted, major = Gc.counters () in
  Gc.minor_words () +. major -. promoted

let kb_per_kb code f =
  let w0 = words () in
  ignore (Sys.opaque_identity (f ()));
  let kb = (words () -. w0) *. float_of_int (Sys.word_size / 8) /. 1024. in
  kb /. (float_of_int (String.length code) /. 1024.)

let program isa = Verify.gen_code ~isa ~profile:"xlisp" ~scale:1.0 ~seed:1

let samc_config = function
  | Verify.Mips -> Samc.mips_config ()
  | Verify.X86 -> Samc.byte_config ()

let sadc_compress isa code =
  let cfg = Sadc.default_config () in
  match isa with
  | Verify.Mips -> ignore (Sadc.Mips.compress_image ~jobs:1 cfg code)
  | Verify.X86 -> ignore (Sadc.X86.compress_image ~jobs:1 cfg code)

let check_budget label ~measured_at ~bound got =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f KB/KB within %.0f (measured %.1f when set)" label got bound measured_at)
    true (got <= bound)

(* (isa, SAMC metrics off, SAMC metrics on, SADC): the value measured
   when the budget was set and the bound, that value plus a quarter
   (rounded up). *)
let budgets =
  [
    (Verify.Mips, (5.5, 7.), (8.5, 11.), (176.7, 221.));
    (Verify.X86, (2.8, 4.), (5.8, 8.), (276.3, 346.));
  ]

let test_budgets () =
  Fun.protect
    ~finally:(fun () ->
      Obs.set_metrics false;
      Obs.reset ())
  @@ fun () ->
  List.iter
    (fun (isa, (off_at, off_bound), (on_at, on_bound), (sadc_at, sadc_bound)) ->
      let code = program isa in
      let name = Verify.isa_name isa in
      let cfg = samc_config isa in
      Obs.set_metrics false;
      (* one warm-up call registers every metric and fills lazily built
         tables, so the measured calls see steady state *)
      ignore (Samc.compress ~jobs:1 cfg code);
      let off = kb_per_kb code (fun () -> Samc.compress ~jobs:1 cfg code) in
      Obs.set_metrics true;
      ignore (Samc.compress ~jobs:1 cfg code);
      let on = kb_per_kb code (fun () -> Samc.compress ~jobs:1 cfg code) in
      Obs.set_metrics false;
      sadc_compress isa code;
      let sadc = kb_per_kb code (fun () -> sadc_compress isa code) in
      Printf.printf "%s: samc off %.2f, samc on %.2f, sadc %.1f KB/KB\n" name off on sadc;
      check_budget (name ^ " samc compress, metrics off") ~measured_at:off_at ~bound:off_bound off;
      check_budget (name ^ " samc compress, metrics on") ~measured_at:on_at ~bound:on_bound on;
      check_budget (name ^ " sadc compress") ~measured_at:sadc_at ~bound:sadc_bound sadc)
    budgets

(* The wire encoders must build each frame once: one string of the frame
   length (header words included) plus at most [frame_slack] words of
   bookkeeping. Joining fields with [^] copied a 4 KiB payload about
   eight times (26 KB per request frame). *)
let frame_slack = 32.

let string_words len = float_of_int ((len / (Sys.word_size / 8)) + 2)

let test_frame_encoders () =
  let payload = String.init 4096 (fun i -> Char.chr (i land 0xff)) in
  let timing =
    { Serve.t_request_id = 7L; t_queue_us = 1; t_service_us = 2; t_server_us = 3 }
  in
  let cases =
    [
      ("encode_request", fun () -> Serve.encode_request ~deadline_ms:5 ~request_id:9L (Serve.Decompress payload));
      ("encode_response", fun () -> Serve.encode_response (Serve.Payload payload));
      ("encode_response with timing", fun () -> Serve.encode_response ~timing (Serve.Payload payload));
    ]
  in
  List.iter
    (fun (name, f) ->
      let frame = f () in
      let w0 = words () in
      let s = Sys.opaque_identity (f ()) in
      let got = words () -. w0 in
      let bound = string_words (String.length s) +. frame_slack in
      Alcotest.(check string) (name ^ " is deterministic") frame s;
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.0f words for a %d-byte frame, within %.0f" name got
           (String.length s) bound)
        true (got <= bound))
    cases

let suite =
  [
    Alcotest.test_case "compress allocation per input KB" `Quick test_budgets;
    Alcotest.test_case "frame encoders allocate the frame once" `Quick test_frame_encoders;
  ]
