(** Incremental hard-criterion solver for label-revelation workflows.

    In transductive practice labels arrive one at a time (an oracle or
    annotator reveals them); refitting from scratch costs O(m³) per
    label.  This solver keeps the inverse of the current system matrix
    [D₂₂ − W₂₂] and downdates it in O(m²) per revelation (removing one
    row/column via the block-inverse identity, {!Linalg.Rank_one}), so a
    full annotation session costs O(m³) total instead of O(m⁴).

    The graph is fixed at creation; only the labeled/unlabeled partition
    evolves. *)

type t

val create : Problem.t -> t
(** O(m³) setup: invert the initial system matrix, which is kept (m²
    floats) for {!system}.  Raises {!Hard.Unanchored_unlabeled} like
    {!Hard.solve} ({!Hard.check_anchored}), whatever the weights of the
    unanchored component, and [Linalg.Cholesky.Not_positive_definite]
    when an anchored system is too ill-conditioned to factor. *)

val predict : t -> (int * float) array
(** Current scores, as [(graph_vertex, score)] pairs for every
    still-unlabeled vertex (ascending vertex order). *)

val reveal : t -> vertex:int -> label:float -> unit
(** Mark the unlabeled [vertex] (graph index) as labeled with the given
    response and downdate the solver.  Raises [Invalid_argument] if the
    vertex is not currently unlabeled. *)

val n_remaining : t -> int
val remaining : t -> int array
(** Still-unlabeled graph vertices, ascending. *)

val labels : t -> (int * float) array
(** All currently known labels (original + revealed), by graph vertex. *)

val graph : t -> Graph.Weighted_graph.t
(** The (fixed) underlying similarity graph. *)

val system : t -> System.t
(** The current Eq. (5) system over {!remaining}: the creation-time
    [Dense] system restricted to those vertices ({!System.restrict}),
    its right-hand side continued over the revealed labels in ascending
    vertex order — what the system of the current labels sums, whatever
    order they were revealed in.  O(m²); for certifying {!predict}. *)
