(* Seeded inputs: whole synthetic programs from the 18 SPEC95 progen
   profiles, the compressed images the daemon makes of them, and the
   request sequences serve-fetch sends. Everything here is a
   pure function of the seed, so two runs with one seed send the same
   bytes in the same order at the same scheduled instants. *)

module Serve = Ccomp_serve.Serve
module Verify = Ccomp_verify.Verify
module Prng = Ccomp_util.Prng

let block_size = 32

let profiles =
  Array.to_list (Array.map (fun p -> p.Ccomp_progen.Profile.name) Ccomp_progen.Profile.spec95)

let isas = [ Serve.Mips; Serve.X86 ]

let algos = [ Serve.Samc; Serve.Sadc ]

let isa_name = function Serve.Mips -> "mips" | Serve.X86 -> "x86"

let algo_name = function Serve.Samc -> "samc" | Serve.Sadc -> "sadc"

type program = { label : string; isa : Serve.isa; code : string }

(* One compressed image of one program: what a compress request must
   return and what a decompress request sends. *)
type item = { prog : program; algo : Serve.algo; image : string }

let programs ~scale ~seed =
  List.concat_map
    (fun profile ->
      List.map
        (fun isa ->
          let visa = match isa with Serve.Mips -> Verify.Mips | Serve.X86 -> Verify.X86 in
          {
            label = profile ^ "." ^ isa_name isa;
            isa;
            code = Verify.gen_code ~isa:visa ~profile ~scale ~seed;
          })
        isas)
    profiles

(* Every (program, algo) pair: the whole-program compressions a
   workload makes. *)
let work progs = Array.of_list (List.concat_map (fun prog -> List.map (fun algo -> (prog, algo)) algos) progs)

(* The expected image is whatever the daemon's own dispatch produces,
   computed in-process before any timing starts. *)
let items progs =
  Array.map
    (fun (prog, algo) ->
      match Serve.handle_request ~jobs:1 (Serve.Compress { algo; isa = prog.isa; block_size; code = prog.code }) with
      | Serve.Payload image -> { prog; algo; image }
      | _ -> failwith ("cannot compress " ^ prog.label ^ " with " ^ algo_name algo))
    (work progs)

(* --- requests ------------------------------------------------------------ *)

type kind = Fetch of item | Ping

type request = { kind : kind; expected : string }

let request_of = function
  | Fetch it -> Serve.Decompress it.image
  | Ping -> Serve.Ping

let make_request kind =
  let expected = match kind with Fetch it -> it.prog.code | Ping -> "pong" in
  { kind; expected }

let payload_bytes r =
  match r.kind with Fetch it -> String.length it.image | Ping -> 0

(* A traffic mix: classes of requests, each a weight and the kinds it
   draws from. *)
type mix = (int * kind array) array

(* serve-fetch's mix: nine decompressions to one ping. The weights are
   this benchmark's own choice, not taken from a measured trace: pings
   are few enough that the median request is a decompression, and
   present so that a framing-only request is always in the sample. *)
let fetch_mix items : mix = [| (9, Array.map (fun it -> Fetch it) items); (1, [| Ping |]) |]

(* The open-loop schedule: send offsets (seconds) and the request each
   carries. Arrivals are a Poisson process conditioned on its count:
   [rate * duration] instants drawn uniformly over the horizon and
   sorted. The requests are stratified: each class gets its share of
   the count (largest remainder), each class deals its kinds from
   reshuffled decks so every program appears equally often, and the
   whole sequence is shuffled. A run's sample then holds the same mix
   of jobs whatever the seed, and only their order and timing vary. *)
let schedule ~(mix : mix) ~rate ~duration ~seed =
  let g = Prng.create (Int64.of_int (seed lxor 0x5eed)) in
  let n = max 0 (int_of_float (Float.round (rate *. duration))) in
  let offsets = Array.init n (fun _ -> Prng.float g *. duration) in
  Array.sort compare offsets;
  let total = Array.fold_left (fun a (w, _) -> a + w) 0 mix in
  let exact = Array.map (fun (w, _) -> float_of_int (n * w) /. float_of_int total) mix in
  let counts = Array.map truncate exact in
  let short = n - Array.fold_left ( + ) 0 counts in
  let by_remainder = Array.init (Array.length mix) Fun.id in
  Array.sort
    (fun a b -> compare (exact.(b) -. float_of_int counts.(b)) (exact.(a) -. float_of_int counts.(a)))
    by_remainder;
  for k = 0 to short - 1 do
    let c = by_remainder.(k) in
    counts.(c) <- counts.(c) + 1
  done;
  let deal (_, kinds) count =
    let deck = Array.copy kinds in
    List.init count (fun i ->
        if i mod Array.length deck = 0 then Prng.shuffle g deck;
        deck.(i mod Array.length deck))
  in
  let kinds = Array.of_list (List.concat (Array.to_list (Array.mapi (fun c cls -> deal cls counts.(c)) mix))) in
  Prng.shuffle g kinds;
  (offsets, Array.map make_request kinds)

(* --- output check -------------------------------------------------------- *)

type outcome = Ok_reply | Wrong_bytes | Error_reply | Shed | Deadline | Transport

let check (req : request) (resp : Serve.response) =
  match resp with
  | Serve.Payload p -> if String.equal p req.expected then Ok_reply else Wrong_bytes
  | Serve.Failed _ -> Error_reply
  | Serve.Overloaded _ -> Shed
  | Serve.Deadline_expired _ -> Deadline

let outcome_name = function
  | Ok_reply -> "ok"
  | Wrong_bytes -> "wrong_bytes"
  | Error_reply -> "error"
  | Shed -> "shed"
  | Deadline -> "deadline"
  | Transport -> "transport"
