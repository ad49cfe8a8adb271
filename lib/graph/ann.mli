(** Approximate k-nearest-neighbours via randomized projection trees
    with multi-probe search.

    A forest of trees recursively splits the point set at the positional
    median of a random-direction projection; a query descends every tree
    and then probes further leaves in order of the query's distance to
    the splitting hyperplanes (a shared priority queue across trees).
    Candidates from the visited leaves are ranked exactly, so the only
    approximation is which points become candidates.

    {2 Cost}

    The trees are built on the domain pool, one tree a pool row.  Each
    split places its positional median by in-place selection (O(len)
    expected, falling back to a sort past log₂ len partition rounds so
    it never goes quadratic) into its tree's projection buffer.  The
    index keeps one row-major copy of the points, n·d floats (4 MB at
    n = 10⁵, d = 5), laid out in the first tree's leaf order, and the
    leaves hold positions in it: the points of a leaf, and of nearby
    leaves, are adjacent in memory.  A query offers every point of
    every visited leaf straight into one bounded max-heap of the [k]
    best (distance², index) keys, so it costs
    O(budget · leaf_size · (d + log k)) with [budget] the leaf visits,
    plus an O(k) membership scan for each candidate that beats the
    kept k-th key (about 39 of the ~298 candidates a query at
    n = 10⁵, k = 8, 4 trees), and allocates only its answer.  The
    [all_k_nearest] fan-out walks its queries in the same leaf order.
    The same heap answers the exact scans, which offer every point:
    the recall probe and the fallback read the leaf-ordered copy, and
    the small-[n] path scans a copy in input order.  That path is the
    repo's one exact kNN search (O(n²·(d + log k)), one query a pool
    row); [Kernel.Similarity.knn] and [knn_approx] get their exact
    lists from it.

    {2 Determinism}

    Tree [t] draws its directions from a substream that depends only
    on ([seed], [t]) and owns its projection buffer and leaf count, so
    the forest is the same for any domain count.  Each query depends
    only on the forest and its own point, and its answer is ranked by
    original indices, not positions.  Every fan-out goes through
    [Parallel.Dispatch]'s pairwise threshold (work measures
    [trees · n] for the build, [n · budget · leaf_size] for the
    queries and [queries · n] for the exact scans), so the output is
    bit-identical for any domain count — the same contract as every
    other pooled kernel.

    {2 Recall model}

    [all_k_nearest] measures recall on a fixed sample of queries against
    the exact answers and doubles the leaf-visit budget until the
    measured recall reaches [recall_target].  Once the budget covers
    every leaf the search is exhaustive (every point is a candidate), so
    the escalation loop always terminates — the target is reachable by
    construction, not by luck.  Small inputs ([n <= exact_cutoff]) skip
    the forest entirely and take the exact path, whose recall is 1 by
    construction: every point is scanned into the heap, and tied
    distances go to the lower index, as on the tree path. *)

type t
(** A built index over a fixed point set. *)

type info = {
  exact : bool;  (** the exact path answered (small [n] or [k = 0]) *)
  trees : int;
  probes : int;
      (** final leaf-visit budget per query, after any escalations *)
  escalations : int;
      (** how many times the budget was doubled to reach the target *)
  recall : float;
      (** measured recall on the probe sample (1.0 on the exact path) *)
}

val build : ?seed:int -> ?trees:int -> ?leaf_size:int -> Linalg.Vec.t array -> t
(** [build points] constructs the forest ([trees] defaults to 3,
    [leaf_size] to 24, [seed] to a fixed constant).  Raises
    [Invalid_argument] on empty or ragged data. *)

val query : t -> ?probes:int -> Linalg.Vec.t -> int -> int array
(** [query index q k] returns the indices of the approximate [k] nearest
    points to an arbitrary query vector, ranked by (distance², index).
    [probes] (default 12) bounds the leaf visits.  Falls back to an
    exact scan when the probed leaves yield fewer than [k] distinct
    candidates.  Raises [Invalid_argument] on dimension mismatch or
    [k] out of range. *)

val all_k_nearest :
  ?seed:int ->
  ?trees:int ->
  ?leaf_size:int ->
  ?probes:int ->
  ?recall_target:float ->
  ?recall_sample:int ->
  ?exact_cutoff:int ->
  Linalg.Vec.t array ->
  int ->
  int array array * info
(** [all_k_nearest points k] returns each point's [k] approximate
    nearest neighbours (self excluded, ranked by (distance², index))
    plus an {!info} describing how the answer was produced.

    [probes] (default 4) is the initial per-tree leaf-visit budget;
    [recall_target] (default 0.9) the measured-recall threshold the
    escalation loop enforces on a [recall_sample]-point probe (default
    64 queries); [exact_cutoff] (default 2048) the size at or below
    which the exact path answers directly.  Counters:
    [graph.ann.builds], [graph.ann.queries], [graph.ann.candidates],
    [graph.ann.escalations], [graph.ann.exact_fallbacks]; spans:
    [ann.build], [ann.search].  Raises [Invalid_argument] unless
    [0 <= k < n] and [0 <= recall_target <= 1]. *)
