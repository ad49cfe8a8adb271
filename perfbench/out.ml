(* Named metrics and the result line. *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* A part's outcome: its metrics, operations attempted and failed, and a
   line per failed check (printed to stderr). *)
type part = {
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;
}

let find metrics name = List.find_opt (fun x -> x.name = name) metrics

let value metrics name =
  match find metrics name with Some x -> x.value | None -> nan

(* Keep the first metric of each name: earlier parts take precedence. *)
let merge lists =
  List.fold_left
    (fun acc l ->
      acc @ List.filter (fun x -> find acc x.name = None) l)
    [] lists

let number v = Printf.sprintf "%.17g" v

let result_line ~correct ~attempted ~failed metrics =
  let body =
    List.map
      (fun x ->
        Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name (number x.value)
          x.unit_)
      metrics
  in
  Printf.sprintf "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}"
    correct attempted failed (String.concat "," body)
