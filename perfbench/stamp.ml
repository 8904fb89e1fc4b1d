(* The host stamp carried by every result: what must match before two
   results may be compared at all. A result from another host is not a
   regression or an improvement; [compare] refuses it. *)

type t = (string * string) list

let cpu_model () =
  let lines = String.split_on_char '\n' (Daemon.read_file "/proc/cpuinfo") in
  match List.find_opt (String.starts_with ~prefix:"model name") lines with
  | Some l -> (
    match String.index_opt l ':' with
    | Some i -> String.trim (String.sub l (i + 1) (String.length l - i - 1))
    | None -> "unknown")
  | None -> "unknown"

let git_rev () =
  match Unix.open_process_args_in "git" [| "git"; "rev-parse"; "HEAD" |] with
  | ic ->
    let rev = try String.trim (input_line ic) with End_of_file -> "" in
    (match Unix.close_process_in ic with Unix.WEXITED 0 when rev <> "" -> rev | _ -> "none")
  | exception Unix.Unix_error _ -> "none"

let make ~workload ~seed ~seconds ~trace ~daemon_flags ~daemon_ocamlrunparam =
  [
    ("nproc", string_of_int (Domain.recommended_domain_count ()));
    ("cpu_model", cpu_model ());
    ("ocaml_version", Sys.ocaml_version);
    ("ocamlrunparam", Option.value (Sys.getenv_opt "OCAMLRUNPARAM") ~default:"");
    ("git_rev", git_rev ());
    ("daemon_flags", daemon_flags);
    ("daemon_ocamlrunparam", daemon_ocamlrunparam);
    ("workload", workload);
    ("seed", string_of_int seed);
    ("seconds", string_of_int seconds);
    ("trace", if trace then "1" else "0");
  ]

(* Keys that describe the machine and runtime; a difference in any of
   them makes two results incomparable. *)
let host_keys = [ "nproc"; "cpu_model"; "ocaml_version"; "ocamlrunparam"; "daemon_ocamlrunparam" ]

(* [Ok ()] when [a] and [b] come from the same host and workload
   settings; otherwise an error naming every differing key. *)
let comparable (a : t) (b : t) =
  let diff keys =
    List.filter_map
      (fun k ->
        let va = List.assoc_opt k a and vb = List.assoc_opt k b in
        if va = vb then None
        else
          Some
            (Printf.sprintf "%s: %s -> %s" k (Option.value va ~default:"?")
               (Option.value vb ~default:"?")))
      keys
  in
  match diff host_keys with
  | _ :: _ as d -> Error ("host changed: " ^ String.concat "; " d)
  | [] -> (
    match diff [ "workload"; "seconds"; "trace"; "daemon_flags" ] with
    | [] -> Ok ()
    | d -> Error ("settings changed: " ^ String.concat "; " d))
