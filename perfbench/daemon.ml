(* The daemon under test: [ccomp serve] started as a child process with
   its default flags (only the port is chosen, by the kernel), talked to
   only over its wire protocols, and read from the outside through
   /proc. *)

module Serve = Ccomp_serve.Serve
module Obs = Ccomp_obs.Obs

type t = { pid : int; port : int; log : string }

let host = "127.0.0.1"

let flags = [ "serve"; "--port"; "0" ]

(* Reads to EOF: /proc files report a length of 0. *)
let read_file path =
  match open_in_bin path with
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> In_channel.input_all ic)
  | exception Sys_error _ -> ""

let find_sub text key =
  let n = String.length text and m = String.length key in
  let rec go i = if i + m > n then None else if String.sub text i m = key then Some i else go (i + 1) in
  go 0

let find_port log =
  let text = read_file log in
  let key = "listening on " ^ host ^ ":" in
  match find_sub text key with
  | None -> None
  | Some i ->
    let j = i + String.length key in
    let k = ref j in
    while !k < String.length text && text.[!k] >= '0' && text.[!k] <= '9' do incr k done;
    if !k > j && !k < String.length text then int_of_string_opt (String.sub text j (!k - j))
    else None

(* The daemon re-execs itself with its tuned GC settings only when the
   caller set none, so the child gets the environment minus
   OCAMLRUNPARAM: every run measures the daemon as deployed. *)
let child_env () =
  Array.of_list
    (List.filter
       (fun kv -> not (String.starts_with ~prefix:"OCAMLRUNPARAM=" kv))
       (Array.to_list (Unix.environment ())))

let rec wait_until ~deadline what f =
  match f () with
  | Some v -> v
  | None ->
    if Unix.gettimeofday () > deadline then failwith ("daemon: timed out waiting for " ^ what);
    Unix.sleepf 0.0005;
    wait_until ~deadline what f

let stop d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10. in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else (
        Unix.sleepf 0.01;
        reap ())
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

(* Spawn, wait for the port and a healthy /healthz, then run [warm]
   (one real request). Returns the daemon and the seconds from spawn to
   the warm reply. *)
let start ~ccomp ~dir ~index ~warm =
  let log = Filename.concat dir (Printf.sprintf "serve-%d.log" index) in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let t0 = Unix.gettimeofday () in
  let pid =
    Fun.protect
      ~finally:(fun () ->
        Unix.close fd;
        Unix.close devnull)
      (fun () ->
        Unix.create_process_env ccomp (Array.of_list (ccomp :: flags)) (child_env ()) devnull fd fd)
  in
  let d = { pid; port = 0; log } in
  match
    let deadline = t0 +. 30. in
    let port = wait_until ~deadline "its port" (fun () -> find_port log) in
    let d = { d with port } in
    wait_until ~deadline "/healthz" (fun () ->
        match Serve.http_get ~timeout_s:1. ~host ~port "/healthz" with
        | Ok (200, _) -> Some ()
        | _ -> None);
    warm d;
    (d, Unix.gettimeofday () -. t0)
  with
  | r -> r
  | exception e ->
    stop d;
    raise e

let connect d =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.setsockopt fd Unix.TCP_NODELAY true;
  Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_of_string host, d.port));
  fd

(* --- /proc ------------------------------------------------------------- *)

let clock_ticks = 100.

(* utime + stime of [pid], in seconds. *)
let cpu_s pid =
  let s = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  (* the command name may hold spaces; fields resume after its ')' *)
  match String.rindex_opt s ')' with
  | None -> nan
  | Some i ->
    let fields = String.split_on_char ' ' (String.sub s (i + 2) (String.length s - i - 2)) in
    let f k = float_of_string (List.nth fields k) in
    (f 11 +. f 12) /. clock_ticks

(* A "Key:   123 kB" line of /proc/<pid>/status, in kB. *)
let status_kb pid key =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  match List.find_opt (String.starts_with ~prefix:(key ^ ":")) lines with
  | None -> nan
  | Some line -> Scanf.sscanf (String.sub line (String.length key + 1) (String.length line - String.length key - 1)) " %f" Fun.id

let peak_rss_mb pid = status_kb pid "VmHWM" /. 1024.

let environ pid =
  String.split_on_char '\000' (read_file (Printf.sprintf "/proc/%d/environ" pid))

let ocamlrunparam pid =
  List.fold_left
    (fun acc kv ->
      if String.starts_with ~prefix:"OCAMLRUNPARAM=" kv then
        String.sub kv 14 (String.length kv - 14)
      else acc)
    "" (environ pid)

(* The daemon's own metrics snapshot, for runtime.* counters. *)
let snapshot d =
  match Serve.http_get ~timeout_s:5. ~host ~port:d.port "/snapshot" with
  | Ok (200, body) -> (
    match Obs.snapshot_of_json body with Ok s -> s | Error e -> failwith ("snapshot: " ^ e))
  | Ok (code, _) -> failwith (Printf.sprintf "snapshot: HTTP %d" code)
  | Error e -> failwith ("snapshot: " ^ e)

let counter (s : Obs.snapshot) name =
  match List.assoc_opt name s.Obs.counters with Some v -> float_of_int v | None -> 0.
