(* The codec phase, in process: whole-image compress, whole-image
   decompress at jobs=1 and jobs=N, and seeded random single-block
   decodes (the cache-refill operation), each call into a layer's public
   function timed and its allocation counted on the calling domain.
   Every output is checked: images against the daemon's bytes, programs
   and blocks against the original code. *)

module Serve = Ccomp_serve.Serve
module Samc = Ccomp_core.Samc
module Sadc = Ccomp_core.Sadc
module Image = Ccomp_image.Image
module Obs = Ccomp_obs.Obs
module Prng = Ccomp_util.Prng

(* One timed, allocation-counted call: (result, microseconds, kB). With
   tracing on, the call is also an Obs span. *)
let call name f =
  let t0 = Clock.now () in
  let r, kb = Obs.with_span ~cat:"perfbench" name (fun () -> Alloc.measure f) in
  (r, (Clock.now () -. t0) *. 1e6, kb)

(* Whole-image compress split at the layer boundary: the codec builds
   its model and encodes, then Image writes the container. The configs
   are the daemon's own (Serve's compress job), so the bytes must equal
   a served reply. *)
type compressed = { bytes : string; codec_us : float; codec_kb : float; write_us : float; write_kb : float }

let compress ~algo ~(isa : Serve.isa) code =
  let block_size = Inputs.block_size in
  let image, codec_us, codec_kb =
    match (algo, isa) with
    | Serve.Samc, Serve.Mips ->
      let cfg = Samc.mips_config ~block_size ~context_bits:2 ~quantize:false ~prune_below:0 () in
      let c, us, kb = call "samc.compress" (fun () -> Samc.compress ~jobs:1 cfg code) in
      (Image.of_samc ~isa:Image.Mips c, us, kb)
    | Serve.Samc, Serve.X86 ->
      let cfg = Samc.byte_config ~block_size ~context_bits:2 ~quantize:false ~prune_below:0 () in
      let c, us, kb = call "samc.compress" (fun () -> Samc.compress ~jobs:1 cfg code) in
      (Image.of_samc ~isa:Image.X86 c, us, kb)
    | Serve.Sadc, Serve.Mips ->
      let cfg = Sadc.default_config ~block_size () in
      let c, us, kb = call "sadc.compress" (fun () -> Sadc.Mips.compress_image ~jobs:1 cfg code) in
      (Image.of_sadc_mips c, us, kb)
    | Serve.Sadc, Serve.X86 ->
      let cfg = Sadc.default_config ~block_size () in
      let c, us, kb = call "sadc.compress" (fun () -> Sadc.X86.compress_image ~jobs:1 cfg code) in
      (Image.of_sadc_x86 c, us, kb)
  in
  let bytes, write_us, write_kb = call "image.write" (fun () -> Image.write image) in
  { bytes; codec_us; codec_kb; write_us; write_kb }

type decompressed = { code : string; read_us : float; read_kb : float; dec_us : float; dec_kb : float }

let decompress ~jobs bytes =
  let image, read_us, read_kb = call "image.read" (fun () -> Image.read bytes) in
  match image with
  | Error e -> failwith ("image does not read back: " ^ e)
  | Ok image ->
    let code, dec_us, dec_kb = call "image.decompress" (fun () -> Image.decompress ~jobs image) in
    { code; read_us; read_kb; dec_us; dec_kb }

(* --- single-block decode --------------------------------------------------- *)

(* A decoder for one block of a parsed image and the block's place in
   the original program. *)
type blocks = { count : int; offset : int -> int; decode : int -> string }

let blocks_of (image : Image.t) =
  let offsets sizes =
    let a = Array.make (Array.length sizes + 1) 0 in
    Array.iteri (fun i s -> a.(i + 1) <- a.(i) + s) sizes;
    a
  in
  match image.Image.payload with
  | Image.Samc c ->
    let bs = c.Samc.config.Samc.block_size in
    let n = Array.length c.Samc.blocks in
    let size b = min bs (c.Samc.original_size - (b * bs)) in
    {
      count = n;
      offset = (fun b -> b * bs);
      decode =
        (fun b -> Samc.decompress_block c.Samc.config c.Samc.model ~original_bytes:(size b) c.Samc.blocks.(b));
    }
  | Image.Sadc_mips c ->
    let n = Sadc.Mips.block_count c in
    let off = offsets (Array.init n (Sadc.Mips.block_original_bytes c)) in
    {
      count = n;
      offset = (fun b -> off.(b));
      decode =
        (fun b -> Ccomp_core.Sadc_isa.Mips_streams.encode_list (Sadc.Mips.decompress_block c b));
    }
  | Image.Sadc_x86 c ->
    let n = Sadc.X86.block_count c in
    let off = offsets (Array.init n (Sadc.X86.block_original_bytes c)) in
    {
      count = n;
      offset = (fun b -> off.(b));
      decode = (fun b -> Ccomp_core.Sadc_isa.X86_streams.encode_list (Sadc.X86.decompress_block c b));
    }

(* --- the phase ---------------------------------------------------------- *)

type per_algo = {
  mutable in_bytes : float;
  mutable out_bytes : float;  (** decompressed bytes at jobs=1 *)
  mutable codec_us : float;  (** model build + encode *)
  mutable codec_kb : float;
  mutable dec_kb : float;  (** Image.decompress allocation at jobs=1 *)
  mutable j1_us : float;  (** Image.decompress at jobs=1 *)
  mutable jn_us : float;  (** Image.decompress at jobs=N *)
  mutable jn_bytes : float;
  mutable block_us : float list;
}

let new_algo () =
  {
    in_bytes = 0.;
    out_bytes = 0.;
    codec_us = 0.;
    codec_kb = 0.;
    dec_kb = 0.;
    j1_us = 0.;
    jn_us = 0.;
    jn_bytes = 0.;
    block_us = [];
  }

type result = {
  items : Inputs.item array;  (** the images the first compress pass made *)
  rounds : int;
  compress_mbps : float;  (** whole image, jobs=1 *)
  decompress_mbps : float;  (** read + decompress, jobs=1 *)
  decompress_mbps_par : float;  (** read + decompress, jobs=N *)
  images_per_s_par : float;  (** whole images at jobs=N *)
  round_compress_mbps : float array;  (** the same per round, for the report *)
  round_decompress_mbps : float array;  (** per pass *)
  round_decompress_mbps_par : float array;
  image_ms : float array;  (** every whole-image read + decompress at jobs=1 *)
  block_decodes : int;
  block_p50_us : float array;  (** per chunk of draws, mean of the two codecs' medians *)
  block_p99_us : float array;
  ratio : float;  (** image bytes / program bytes over the set *)
  samc : per_algo;
  sadc : per_algo;
  write_us : float list;  (** per image *)
  write_kb : float list;
  read_us : float list;
  read_kb : float list;
  dec_us : float list;  (** Image.decompress per image, jobs=1 *)
  par_tasks : float;  (** pool tasks per image decompressed at jobs=N *)
  checked : int;
  failed : int;
  cpu_ms_per_image : float;  (** process CPU per image decompress, jobs=1 *)
}

let mb_per_s bytes us = bytes /. us

(* Each image's median time over the run, summed over the images: the
   time one pass over the set takes when no pass is hit by a stall or a
   collection of the host or the runtime. Rates are taken over it. *)
let median_pass (samples : float list array) =
  Array.fold_left (fun a l -> a +. Stats.median (Array.of_list l)) 0. samples

let j1_passes = 4

(* Single-block decodes come in chunks of [chunk_draws] seeded random
   draws, [chunks] to a round. *)
let chunk_draws = 2000

let chunks = 10

(* A codec session over [work] (program, algo) pairs runs in rounds. A
   round is one compress pass, [j1_passes] decompress passes at jobs=1,
   one at jobs=[jobs] and [chunks] chunks of single-block decodes;
   rounds interleave the operations so drift in the host hits them
   alike. After the first round, the chunks are spread through the
   compress pass, so they too sample the host over the whole round.
   [step ~seconds] runs rounds until [seconds] have passed (at least
   one), so a caller can spread a session over a run; [finish] returns
   what every round measured. Between timed calls, never inside one,
   a round lets [calib] take its kernel timings, and [on_round] runs
   before each round. *)
type session = { step : seconds:float -> unit; finish : unit -> result }

let session ?expected ?(on_round = ignore) ~calib ~seed ~jobs (work : (Inputs.program * Serve.algo) array) =
  let g = Prng.create (Int64.of_int (seed lxor 0xb10c)) in
  let samc = new_algo () and sadc = new_algo () in
  let acc algo = match algo with Serve.Samc -> samc | Serve.Sadc -> sadc in
  (* the first compress pass makes the images the later passes decode;
     each must equal [expected] when given, and every later pass must
     reproduce the first *)
  let n = Array.length work in
  let images = Array.make n "" in
  let items () = Array.mapi (fun k (prog, algo) -> { Inputs.prog; algo; image = images.(k) }) work in
  let parsed =
    lazy
      (Array.map
         (fun image ->
           match Image.read image with
           | Ok im -> blocks_of im
           | Error e -> failwith ("image does not read: " ^ e))
         images)
  in
  let checked = ref 0 and failed = ref 0 in
  let check ok = incr checked; if not ok then incr failed in
  let c_mbps = ref [] and d_mbps = ref [] and p_mbps = ref [] in
  let c_item = Array.make n [] and d_item = Array.make n [] and p_item = Array.make n [] in
  let image_ms = ref [] and blocks = ref 0 and block_p50 = ref [] and block_p99 = ref [] in
  let write_us = ref [] and write_kb = ref [] and read_us = ref [] and read_kb = ref [] in
  let dec_us = ref [] in
  let tasks = Obs.Counter.make "par.tasks" in
  let tasks_total = ref 0 and par_images = ref 0 in
  let cpu_j1 = ref 0. and j1_images = ref 0 in
  let rounds = ref 0 in
  let total_in = Array.fold_left (fun a ((p : Inputs.program), _) -> a + String.length p.Inputs.code) 0 work in
  let last_round = ref 0. in
  (* One chunk of random single-block decodes. Its percentiles are
     taken per chunk, and the metric is the median over chunks, so a
     burst of host stalls moves a few chunks, not the result. A SADC
     block takes about twice as long as a SAMC one and the draws are
     half of each, so the pooled median falls in the gap between the
     two and moves with each seed's mix of blocks; the chunk's p50 is
     the mean of the two codecs' medians instead. *)
  let block_chunk () =
    Calib.tick calib;
    let chunk_us = ref [] and by_algo = Array.make 2 [] in
    let items = items () in
    for _ = 1 to chunk_draws do
      let k = Prng.int g (Array.length items) in
      let b = (Lazy.force parsed).(k) in
      if b.count > 0 then begin
        let i = Prng.int g b.count in
        let out, us, _ = call "block.decode" (fun () -> b.decode i) in
        let code = items.(k).Inputs.prog.Inputs.code in
        let off = b.offset i in
        check
          (off + String.length out <= String.length code
          && String.equal out (String.sub code off (String.length out)));
        chunk_us := us :: !chunk_us;
        let j = match items.(k).Inputs.algo with Serve.Samc -> 0 | Serve.Sadc -> 1 in
        by_algo.(j) <- us :: by_algo.(j);
        let a = acc items.(k).Inputs.algo in
        a.block_us <- us :: a.block_us
      end
    done;
    let sorted = Stats.sorted (Array.of_list !chunk_us) in
    blocks := !blocks + Array.length sorted;
    block_p50 := Stats.mean (Array.map (fun l -> Stats.median (Array.of_list l)) by_algo) :: !block_p50;
    block_p99 := Stats.percentile_sorted sorted 99. :: !block_p99
  in
  let chunk_every = max 1 (n / chunks) in
  let round () =
    on_round ();
    let round_start = Clock.now () in
    incr rounds;
    let first = !rounds = 1 in
    (* compress *)
    let us = ref 0. in
    Array.iteri
      (fun k ((prog : Inputs.program), algo) ->
        let c = compress ~algo ~isa:prog.Inputs.isa prog.Inputs.code in
        if first then images.(k) <- c.bytes;
        let reference = match expected with Some e -> e.(k) | None -> images.(k) in
        check (String.equal c.bytes reference);
        us := !us +. c.codec_us +. c.write_us;
        c_item.(k) <- (c.codec_us +. c.write_us) :: c_item.(k);
        Calib.tick calib;
        if (not first) && k mod chunk_every = 0 && k / chunk_every < chunks then block_chunk ();
        if first then begin
          let a = acc algo in
          a.in_bytes <- a.in_bytes +. float_of_int (String.length prog.Inputs.code);
          a.codec_us <- a.codec_us +. c.codec_us;
          a.codec_kb <- a.codec_kb +. c.codec_kb;
          write_us := c.write_us :: !write_us;
          write_kb := c.write_kb :: !write_kb
        end)
      work;
    let items = items () in
    c_mbps := mb_per_s (float_of_int total_in) !us :: !c_mbps;
    (* decompress, jobs=1 *)
    for pass = 1 to j1_passes do
      Calib.tick calib;
      let us = ref 0. in
      let cpu0 = Unix.times () in
      Array.iteri
        (fun k (it : Inputs.item) ->
          let d = decompress ~jobs:1 it.Inputs.image in
          check (String.equal d.code it.Inputs.prog.Inputs.code);
          let t = d.read_us +. d.dec_us in
          us := !us +. t;
          d_item.(k) <- t :: d_item.(k);
          image_ms := (t /. 1e3) :: !image_ms;
          if first && pass = 1 then begin
            let a = acc it.Inputs.algo in
            a.out_bytes <- a.out_bytes +. float_of_int (String.length d.code);
            a.dec_kb <- a.dec_kb +. d.dec_kb;
            a.j1_us <- a.j1_us +. d.dec_us;
            read_us := d.read_us :: !read_us;
            read_kb := d.read_kb :: !read_kb;
            dec_us := d.dec_us :: !dec_us
          end)
        items;
      let cpu1 = Unix.times () in
      cpu_j1 := !cpu_j1 +. (cpu1.Unix.tms_utime -. cpu0.Unix.tms_utime) +. (cpu1.Unix.tms_stime -. cpu0.Unix.tms_stime);
      j1_images := !j1_images + Array.length items;
      d_mbps := mb_per_s (float_of_int total_in) !us :: !d_mbps
    done;
    (* decompress, jobs=N *)
    Calib.tick calib;
    let us = ref 0. in
    Array.iteri
      (fun k (it : Inputs.item) ->
        let t0 = Obs.Counter.value tasks in
        let d = decompress ~jobs it.Inputs.image in
        check (String.equal d.code it.Inputs.prog.Inputs.code);
        tasks_total := !tasks_total + (Obs.Counter.value tasks - t0);
        incr par_images;
        us := !us +. d.read_us +. d.dec_us;
        p_item.(k) <- (d.read_us +. d.dec_us) :: p_item.(k);
        if first then begin
          let a = acc it.Inputs.algo in
          a.jn_us <- a.jn_us +. d.dec_us;
          a.jn_bytes <- a.jn_bytes +. float_of_int (String.length d.code)
        end)
      items;
    p_mbps := mb_per_s (float_of_int total_in) !us :: !p_mbps;
    (* the first round's block decodes wait for its images *)
    if first then for _ = 1 to chunks do block_chunk () done;
    last_round := Clock.now () -. round_start
  in
  (* a round that would end past the budget by more than half its
     length is not started *)
  let step ~seconds =
    let t_end = Clock.now () +. seconds in
    round ();
    while Clock.now () +. (0.5 *. !last_round) < t_end do
      round ()
    done
  in
  let finish () =
    let total_image = Array.fold_left (fun a image -> a + String.length image) 0 images in
    let arr l = Array.of_list (List.rev l) in
    {
      items = items ();
      rounds = !rounds;
      compress_mbps = mb_per_s (float_of_int total_in) (median_pass c_item);
      decompress_mbps = mb_per_s (float_of_int total_in) (median_pass d_item);
      decompress_mbps_par = mb_per_s (float_of_int total_in) (median_pass p_item);
      images_per_s_par = float_of_int n /. (median_pass p_item /. 1e6);
      round_compress_mbps = arr !c_mbps;
      round_decompress_mbps = arr !d_mbps;
      round_decompress_mbps_par = arr !p_mbps;
      image_ms = arr !image_ms;
      block_decodes = !blocks;
      block_p50_us = arr !block_p50;
      block_p99_us = arr !block_p99;
      ratio = float_of_int total_image /. float_of_int total_in;
      samc;
      sadc;
      write_us = !write_us;
      write_kb = !write_kb;
      read_us = !read_us;
      read_kb = !read_kb;
      dec_us = !dec_us;
      par_tasks = float_of_int !tasks_total /. float_of_int (max 1 !par_images);
      checked = !checked;
      failed = !failed;
      cpu_ms_per_image = !cpu_j1 *. 1e3 /. float_of_int (max 1 !j1_images);
    }
  in
  { step; finish }

let run ?expected ~calib ~seconds ~seed ~jobs work =
  let s = session ?expected ~calib ~seed ~jobs work in
  s.step ~seconds;
  s.finish ()
