(* perfbench: the repository's benchmark driver.

     main.exe --workload NAME --seed N --seconds S --trace 0|1
     main.exe compare RESULT_A RESULT_B

   Run from the repository root, after building bin/ccomp.exe. The last
   line of standard output is one JSON object:
   {"correct", "attempted", "failed", "metrics"}. The full result, with
   its host stamp and report, is also written to .perfbench/ (and, for
   a traced run, the span traces). See README.md. *)

open Perfbench
module Json = Ccomp_obs.Obs.Json

let usage () =
  prerr_endline
    "usage: main.exe --workload serve-fetch|codec-suite --seed N --seconds S --trace 0|1\n\
    \       main.exe compare RESULT_A RESULT_B";
  exit 2

let num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v else Printf.sprintf "%.17g" v

let str s = "\"" ^ Json.escape s ^ "\""

let metrics_json (ms : Workload.metric list) =
  "{"
  ^ String.concat ", "
      (List.map
         (fun (x : Workload.metric) ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (str x.Workload.name) (num x.Workload.value)
             (str x.Workload.unit))
         ms)
  ^ "}"

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc s)

(* The daemon under test, as dune builds it, and where results go. *)
let ccomp = "_build/default/bin/ccomp.exe"

let out = ".perfbench"

let run ~workload ~seed ~seconds ~trace =
  (try Unix.mkdir out 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  if not (Sys.file_exists ccomp) then begin
    prerr_endline ("perfbench: daemon binary not found: " ^ ccomp);
    exit 1
  end;
  let s = float_of_int seconds in
  let r =
    match (workload, trace) with
    | "serve-fetch", false -> Workload.serve_untraced ~ccomp ~dir:out ~seed ~seconds:s
    | "codec-suite", false -> Workload.codec_untraced ~seed ~seconds:s
    | "serve-fetch", true -> Traced.serve ~ccomp ~dir:out ~seed ~seconds:s
    | "codec-suite", true -> Traced.codec ~ccomp ~dir:out ~seed ~seconds:s
    | _ -> usage ()
  in
  let bad = List.filter (fun (x : Workload.metric) -> not (Float.is_finite x.Workload.value)) r.Workload.metrics in
  if bad <> [] then begin
    List.iter (fun (x : Workload.metric) -> Printf.eprintf "perfbench: %s was not measured\n" x.Workload.name) bad;
    exit 1
  end;
  let daemon_flags =
    if workload = "codec-suite" && not trace then "none (in process)" else String.concat " " Daemon.flags
  in
  let stamp =
    Stamp.make ~workload ~seed ~seconds ~trace ~daemon_flags
      ~daemon_ocamlrunparam:r.Workload.daemon_ocamlrunparam
  in
  let tag = Printf.sprintf "%s-seed%d-trace%d" workload seed (if trace then 1 else 0) in
  let correct = r.Workload.wrong_bytes = 0 in
  List.iter (fun (k, v) -> Printf.printf "# host %s = %s\n" k v) stamp;
  List.iter (fun l -> Printf.printf "# %s\n" l) r.Workload.report;
  List.iter
    (fun (x : Workload.metric) -> Printf.printf "# %-36s %14.6g %s\n" x.Workload.name x.Workload.value x.Workload.unit)
    r.Workload.metrics;
  let result_file = Filename.concat out ("result-" ^ tag ^ ".json") in
  write_file result_file
    (Printf.sprintf "{\"host\": {%s},\n \"report\": [%s],\n \"correct\": %b, \"attempted\": %d, \"failed\": %d,\n \"metrics\": %s}\n"
       (String.concat ", " (List.map (fun (k, v) -> str k ^ ": " ^ str v) stamp))
       (String.concat ", " (List.map str r.Workload.report))
       correct r.Workload.attempted r.Workload.failed (metrics_json r.Workload.metrics));
  if trace then begin
    write_file (Filename.concat out ("spans-" ^ tag ^ ".json")) (Span.to_json r.Workload.spans);
    Ccomp_obs.Obs.write_trace (Filename.concat out ("calls-" ^ tag ^ ".json"))
  end;
  Printf.printf "# result written to %s\n" result_file;
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n%!" correct
    r.Workload.attempted r.Workload.failed (metrics_json r.Workload.metrics)

(* --- compare ------------------------------------------------------------- *)

let load path =
  match Json.parse (Daemon.read_file path) with
  | Error e -> failwith (path ^ ": " ^ e)
  | Ok j -> j

let stamp_of j =
  match Json.member "host" j with
  | Some (Json.Obj kvs) -> List.filter_map (function k, Json.Str v -> Some (k, v) | _ -> None) kvs
  | _ -> []

let values_of j =
  match Json.member "metrics" j with
  | Some (Json.Obj kvs) ->
    List.filter_map
      (fun (k, v) -> match Json.member "value" v with Some (Json.Num x) -> Some (k, x) | _ -> None)
      kvs
  | _ -> []

let compare_results a b =
  let ja = load a and jb = load b in
  match Stamp.comparable (stamp_of ja) (stamp_of jb) with
  | Error e ->
    prerr_endline e;
    exit 3
  | Ok () ->
    let vb = values_of jb in
    List.iter
      (fun (k, x) ->
        match List.assoc_opt k vb with
        | Some y -> Printf.printf "%-36s %14.6g -> %14.6g  (%+.1f%%)\n" k x y ((y -. x) /. x *. 100.)
        | None -> Printf.printf "%-36s %14.6g -> missing\n" k x)
      (values_of ja)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Ccomp_obs.Obs.set_metrics true;
  match Array.to_list Sys.argv with
  | [ _; "compare"; a; b ] -> compare_results a b
  | _ :: args ->
    let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
    let rec parse = function
      | "--workload" :: v :: rest -> workload := v; parse rest
      | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
      | "--seconds" :: v :: rest -> seconds := int_of_string_opt v; parse rest
      | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
      | [] -> ()
      | _ -> usage ()
    in
    parse args;
    (match (!seed, !seconds, !trace) with
    | Some seed, Some seconds, Some trace when seconds > 0 ->
      run ~workload:!workload ~seed ~seconds ~trace
    | _ -> usage ())
  | [] -> usage ()
