(* End-to-end file workflow: write a partially labeled dataset to CSV,
   read it back, fit the hard criterion, and export the results — the
   loop a practitioner would run on their own data files.

   Run with:  dune exec examples/csv_workflow.exe *)

let () =
  let rng = Prng.Rng.create 77 in
  (* fabricate a "user dataset": two noisy clusters, half the labels
     withheld *)
  let n_points = 60 in
  let points =
    Array.init n_points (fun i ->
        let cx = if i mod 2 = 0 then 0. else 3. in
        [| cx +. Prng.Distributions.normal rng ~mean:0. ~std:0.5;
           Prng.Distributions.normal rng ~mean:0. ~std:0.5 |])
  in
  let labels =
    Array.init n_points (fun i ->
        if i < 20 then Some (if i mod 2 = 0 then 1. else 0.) else None)
  in
  let path = Filename.temp_file "gssl_data" ".csv" in
  Dataset.Csv.write_file path
    (Dataset.Csv.parse (Dataset.Csv.render_points ~labels points));
  Printf.printf "wrote %s (%d rows, %d labeled)\n" path n_points 20;

  (* --- the part a user would start from: load and fit --- *)
  let data = Dataset.Csv.parse_numeric (In_channel.with_open_bin path In_channel.input_all) in
  let labeled = ref [] and unlabeled = ref [] in
  Array.iteri
    (fun i x ->
      match data.Dataset.Csv.labels.(i) with
      | Some y -> labeled := (x, y) :: !labeled
      | None -> unlabeled := x :: !unlabeled)
    data.Dataset.Csv.features;
  let labeled = Array.of_list (List.rev !labeled) in
  let unlabeled = Array.of_list (List.rev !unlabeled) in
  let problem =
    Gssl.Problem.of_points ~kernel:Kernel.Kernel_fn.Rbf
      ~bandwidth:Kernel.Bandwidth.Median_heuristic ~labeled ~unlabeled
  in
  let scores = Gssl.Hard.solve problem in
  Printf.printf "fitted hard criterion on %d labeled + %d unlabeled points\n\n"
    (Array.length labeled) (Array.length unlabeled);

  Printf.printf "%28s  %8s  %6s\n" "point" "score" "class";
  Array.iteri
    (fun a x ->
      if a < 8 then
        Printf.printf "(%8.3f, %8.3f)          %8.3f  %6d\n" x.(0) x.(1)
          scores.(a)
          (if scores.(a) >= 0.5 then 1 else 0))
    unlabeled;
  Printf.printf "   ... (%d more)\n\n" (Array.length unlabeled - 8);

  (* export predictions back to CSV *)
  let out = Filename.temp_file "gssl_pred" ".csv" in
  Dataset.Csv.write_file out
    ([ "x0"; "x1"; "score" ]
    :: Array.to_list
         (Array.mapi
            (fun a x ->
              [
                string_of_float x.(0); string_of_float x.(1);
                string_of_float scores.(a);
              ])
            unlabeled));
  Printf.printf "predictions written to %s\n" out;
  Sys.remove path;
  Sys.remove out
