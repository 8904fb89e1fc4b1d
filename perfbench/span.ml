(* Spans of the traced run, kept in memory and written once at the end
   as Chrome trace_event JSON. A span names its parent; spans of one
   request share the request's id. *)

type t = {
  id : int;
  parent : int;  (** [0] = a root *)
  req : int;  (** request id, [0] = none *)
  name : string;
  t0 : float;  (** seconds, one clock for the whole run *)
  t1 : float;
}

type store = { mutable spans : t list; mutable next : int }

let create () = { spans = []; next = 1 }

let add st ~parent ~req name t0 t1 =
  let id = st.next in
  st.next <- id + 1;
  st.spans <- { id; parent; req; name; t0; t1 } :: st.spans;
  id

let spans st = List.rev st.spans

(* Length of the union of intervals [(a, b)], each clipped to [lo, hi]. *)
let covered ~lo ~hi intervals =
  let clipped =
    List.filter_map
      (fun (a, b) ->
        let a = Float.max a lo and b = Float.min b hi in
        if b > a then Some (a, b) else None)
      intervals
  in
  let sorted = List.sort compare clipped in
  let total, last =
    List.fold_left
      (fun (total, (ca, cb)) (a, b) ->
        if a > cb then (total +. (cb -. ca), (a, b)) else (total, (ca, Float.max cb b)))
      (0., (lo, lo))
      sorted
  in
  total +. (snd last -. fst last)

(* Self time: a span's duration minus the part of it its children
   cover. Returns [(span, self_seconds)] for every span. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter (fun s -> if s.parent <> 0 then Hashtbl.add children s.parent (s.t0, s.t1)) spans;
  List.map
    (fun s ->
      let kids = Hashtbl.find_all children s.id in
      (s, s.t1 -. s.t0 -. covered ~lo:s.t0 ~hi:s.t1 kids))
    spans

let to_json spans =
  let b = Buffer.create 4096 in
  Buffer.add_string b "[";
  List.iteri
    (fun i s ->
      if i > 0 then Buffer.add_string b ",\n";
      Printf.bprintf b
        {|{"name":"%s","ph":"X","pid":1,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d,"req":%d}}|}
        (Ccomp_obs.Obs.Json.escape s.name) (if s.req = 0 then 0 else 1) (s.t0 *. 1e6)
        ((s.t1 -. s.t0) *. 1e6) s.id s.parent s.req)
    spans;
  Buffer.add_string b "]\n";
  Buffer.contents b
