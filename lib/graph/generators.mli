(** Random graph generators.

    The stochastic block model is the graph-world version of the paper's
    cluster assumption; [examples/sbm_anchors.ml] uses it to show the
    uninformative limit of the hard criterion. *)

val stochastic_block :
  Prng.Rng.t ->
  sizes:int array ->
  p_in:float ->
  p_out:float ->
  Weighted_graph.t * int array
(** Stochastic block model: within-block edges with probability [p_in],
    cross-block with [p_out]; returns the graph and the block label per
    vertex.  Raises [Invalid_argument] on bad probabilities or empty
    blocks. *)
