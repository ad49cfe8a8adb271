(* A fresh process whose first draws from [Dataset.Synthetic] happen on
   several domains at once.  The sampler's distribution is module-level
   state; a [lazy] there raised [CamlinternalLazy.Undefined] in every
   domain that lost the race to force it.  Four racers rather than two:
   against that lazy, on a two-core machine, two racing domains never
   overlapped inside the force in 60 runs and four overlapped in all 60.
   Runs as its own executable so no earlier draw in the process can have
   initialised the state. *)

let racers = 4

let () =
  let ready = Atomic.make 0 in
  let draw seed () =
    Atomic.incr ready;
    while Atomic.get ready < racers do
      Domain.cpu_relax ()
    done;
    Dataset.Synthetic.sample_input (Prng.Rng.create seed)
  in
  (* join every racer before the serial redraws, which would otherwise
     initialise the state first *)
  let draws =
    List.init racers (fun seed -> Domain.spawn (draw seed))
    |> List.map Domain.join
  in
  List.iteri
    (fun seed x ->
      if x <> Dataset.Synthetic.sample_input (Prng.Rng.create seed) then begin
        Printf.eprintf "synthetic: concurrent draw %d differs from a serial one\n"
          seed;
        exit 1
      end)
    draws
