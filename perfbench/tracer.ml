(* In-memory span recorder for the traced run.  A span has a name, start
   and end (monotonic ns), the span that caused it, and a group id shared
   by every span of one request or one solve.  Nothing is written until
   the run ends. *)

type span = {
  id : int;
  name : string;
  group : int;
  parent : int;  (** -1 for a root *)
  start_s : float;
  mutable stop_s : float;
}

type t = {
  mutable spans : span list;  (** newest first *)
  mutable next_id : int;
  mutable next_group : int;
  mutable stack : span list;  (** open spans, innermost first *)
}

let create () = { spans = []; next_id = 0; next_group = 0; stack = [] }

let new_group t =
  t.next_group <- t.next_group + 1;
  t.next_group

let add t ~name ~group ~parent ~start_s ~stop_s =
  let s = { id = t.next_id; name; group; parent; start_s; stop_s } in
  t.next_id <- t.next_id + 1;
  t.spans <- s :: t.spans;
  s

(* Record a finished interval measured elsewhere (e.g. a request timed
   from its scheduled send). *)
let record t ?group ?parent ~name ~start_s ~stop_s () =
  let parent_span = match parent with Some p -> Some p | None -> List.nth_opt t.stack 0 in
  let group =
    match (group, parent_span) with
    | Some g, _ -> g
    | None, Some p -> p.group
    | None, None -> new_group t
  in
  let parent = match parent_span with Some p -> p.id | None -> -1 in
  add t ~name ~group ~parent ~start_s ~stop_s

(* Time [f] as a child of the innermost open span (or of [parent]). *)
let with_span t ?group ?parent name f =
  let s = record t ?group ?parent ~name ~start_s:(Clock.now_s ()) ~stop_s:nan () in
  t.stack <- s :: t.stack;
  Fun.protect
    ~finally:(fun () ->
      s.stop_s <- Clock.now_s ();
      t.stack <- (match t.stack with _ :: rest -> rest | [] -> []))
    f

let spans t = List.rev t.spans
let duration s = s.stop_s -. s.start_s

(* Self time: the span's duration minus the part of its interval that its
   children cover (overlapping children are counted once). *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
      let ivs =
        Hashtbl.find_all children s.id
        |> List.filter_map (fun c ->
               let a = Float.max c.start_s s.start_s
               and b = Float.min c.stop_s s.stop_s in
               if b > a then Some (a, b) else None)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (acc, reach) (a, b) ->
            if b <= reach then (acc, reach)
            else (acc +. (b -. Float.max a reach), b))
          (0., neg_infinity) ivs
      in
      (s, duration s -. covered))
    spans

type summary = { count : int; total_s : float; self_s : float }

(* Per-name totals, in order of first appearance. *)
let summarize spans =
  let tbl = Hashtbl.create 32 and order = ref [] in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt tbl s.name with
      | Some a ->
          Hashtbl.replace tbl s.name
            { count = a.count + 1; total_s = a.total_s +. duration s;
              self_s = a.self_s +. self }
      | None ->
          order := s.name :: !order;
          Hashtbl.replace tbl s.name
            { count = 1; total_s = duration s; self_s = self })
    (self_times spans);
  List.rev_map (fun n -> (n, Hashtbl.find tbl n)) !order

let mean_ms spans name =
  match List.filter (fun s -> s.name = name) spans with
  | [] -> nan
  | l ->
      1e3 *. List.fold_left (fun a s -> a +. duration s) 0. l
      /. float_of_int (List.length l)

(* One JSON object per line: the raw spans, then the per-name summary. *)
let write t path =
  let spans = spans t in
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"group\":%d,\"parent\":%d,\"start_s\":%.9f,\"end_s\":%.9f}\n"
            s.id s.name s.group s.parent s.start_s s.stop_s)
        spans;
      List.iter
        (fun (name, a) ->
          Printf.fprintf oc
            "{\"summary\":%S,\"count\":%d,\"total_ms\":%.6f,\"self_ms\":%.6f}\n"
            name a.count (1e3 *. a.total_s) (1e3 *. a.self_s))
        (summarize spans))
