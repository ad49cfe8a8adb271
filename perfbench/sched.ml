(* Open-loop request schedules: Poisson arrivals drawn from the workload
   seed, so a schedule is a pure function of its parameters. *)

type kind = Query | Relabel of { vertex : int; label : float }

type req = {
  due_s : float;  (** send time, seconds after the schedule's origin *)
  kind : kind;
}

(* [relabels] requests, at seeded positions, reveal distinct vertices of
   [pool] (drawn without replacement) with the label [label_of v]; the
   rest are queries. *)
let make ~seed ~rate ~count ~relabels ~pool ~label_of =
  if rate <= 0. || count < 1 then invalid_arg "Sched.make";
  if relabels < 0 || relabels > count || relabels > Array.length pool then
    invalid_arg "Sched.make: relabels exceed the requests or the pool";
  let rng = Prng.Rng.create seed in
  let t = ref 0. in
  let due =
    Array.init count (fun _ ->
        t := !t -. (log (1. -. Prng.Rng.float rng) /. rate);
        !t)
  in
  let is_relabel = Array.make count false in
  Array.iter
    (fun i -> is_relabel.(i) <- true)
    (Prng.Rng.sample_without_replacement rng relabels count);
  let targets = Array.copy pool in
  Prng.Rng.shuffle_inplace rng targets;
  let next = ref 0 in
  Array.mapi
    (fun i due_s ->
      let kind =
        if is_relabel.(i) then begin
          let v = targets.(!next) in
          incr next;
          Relabel { vertex = v; label = label_of v }
        end
        else Query
      in
      { due_s; kind })
    due

let is_query r = r.kind = Query
