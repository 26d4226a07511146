open Olar_data
module Counter = Olar_util.Timer.Counter
module Obs = Olar_obs.Obs

type hash_policy =
  | No_hash
  | Hash_pass2 of int
  | Hash_all of int

type counting =
  | Use_trie
  | Use_hashtree

type config = {
  trim : bool;
  hash : hash_policy;
  counting : counting;
  domains : int;
}

(* First-class view of a counting structure so the pass code is agnostic
   to trie, pair triangle and hash tree. *)
type counter = {
  counter_transaction : Itemset.t -> unit;
  counter_results : unit -> (Itemset.t * int) array;
}

(* Pass [k]'s counter over [candidates] (lex-sorted, distinct). Under
   [Use_trie], level 2 counts in a pair triangle unless the triangle
   would be far larger than the candidate list (Pair_triangle.create). *)
let make_counter counting ~k candidates =
  let trie () =
    let t = Trie.create ~depth:k in
    Array.iter (Trie.insert t) candidates;
    {
      counter_transaction = Trie.count_transaction t;
      counter_results = (fun () -> Trie.to_sorted_array t);
    }
  in
  match counting with
  | Use_trie when k = 2 -> (
    match Pair_triangle.create candidates with
    | Some p ->
      {
        counter_transaction = Pair_triangle.count_transaction p;
        counter_results = (fun () -> Pair_triangle.to_sorted_array p);
      }
    | None -> trie ())
  | Use_trie -> trie ()
  | Use_hashtree ->
    let t = Hashtree.create ~fanout:128 ~leaf_capacity:32 ~depth:k () in
    Array.iter (Hashtree.insert t) candidates;
    {
      counter_transaction = Hashtree.count_transaction t;
      counter_results = (fun () -> Hashtree.to_sorted_array t);
    }

(* FNV-1a over the first [len] entries of [a]; must agree between the
   hashing of transaction combinations and the filtering of candidates.
   [fnv_basis], [fnv_step] and [fnv_finish] are the same hash unrolled,
   for the pair loops of pass 1 and level-2 generation. *)
let fnv_basis = 0x3f29ce484222325
let fnv_step h i = (h lxor i) * 0x100000001b3
let fnv_finish h = h land max_int

let fnv a len =
  let h = ref fnv_basis in
  for i = 0 to len - 1 do
    h := fnv_step !h a.(i)
  done;
  fnv_finish !h

let bucket_of_itemset buckets x =
  fnv (Itemset.as_array x) (Itemset.cardinal x) mod buckets

(* Enumerate all [k]-combinations of [items] (sorted), calling [f buf]
   with the combination in buf.(0..k-1). The buffer is reused. *)
let iter_combinations items k f =
  let n = Array.length items in
  if k <= n then begin
    let buf = Array.make k 0 in
    let rec choose depth from =
      if depth = k then f buf
      else
        for i = from to n - (k - depth) do
          buf.(depth) <- items.(i);
          choose (depth + 1) (i + 1)
        done
    in
    choose 0 0
  end

let no_stats = Stats.create ()

(* Wrap one level pass in a trace span reporting the level and how many
   itemsets survived it; a disabled [obs] runs [f] bare. *)
let pass_span obs ~k f =
  match obs with
  | None -> f ()
  | Some ctx ->
    let out = ref [||] in
    Obs.span ctx "mine.pass"
      ~attrs:(fun () ->
        [
          ("level", Olar_obs.Trace.Int k);
          ("frequent", Olar_obs.Trace.Int (Array.length !out));
        ])
      (fun () ->
        let ((entries, _, _) as r) = f () in
        out := entries;
        r)

(* Decide the hash-table size for the table built during pass [k]
   (filtering candidates of size k+1). *)
let buckets_for_pass config k =
  match config.hash with
  | No_hash -> None
  | Hash_pass2 b -> if k = 1 then Some b else None
  | Hash_all b -> Some b

let filter_array p a =
  let out = Olar_util.Vec.with_capacity (Array.length a) in
  Array.iter (fun x -> if p x then Olar_util.Vec.push out x) a;
  Olar_util.Vec.to_array out

let frequent_entries ~minsup counted =
  filter_array (fun (_, c) -> c >= minsup) counted

(* The items of some frequent k-itemset in [entries], marked per item id. *)
let alive_items ~num_items entries =
  let alive = Bytes.make num_items '\000' in
  Array.iter
    (fun (x, _) -> Itemset.iter (fun i -> Bytes.set alive i '\001') x)
    entries;
  alive

(* Trim for pass k+1: keep only [alive] items; drop transactions that
   can no longer contain a (k+1)-candidate. Exact (downward closure):
   every item of a frequent (k+1)-itemset lies in one of its frequent
   k-subsets. A transaction that loses nothing is shared, not copied. *)
let trim_transactions stats ~next_k ~alive txns =
  let out = Olar_util.Vec.with_capacity (Array.length txns) in
  let dropped = ref 0 in
  Array.iter
    (fun txn ->
      let items = Itemset.as_array txn in
      let n = Array.length items in
      let kept = ref 0 in
      for j = 0 to n - 1 do
        if Bytes.get alive items.(j) <> '\000' then incr kept
      done;
      dropped := !dropped + n - !kept;
      if !kept >= next_k then
        if !kept = n then Olar_util.Vec.push out txn
        else begin
          let a = Array.make !kept 0 and w = ref 0 in
          for j = 0 to n - 1 do
            if Bytes.get alive items.(j) <> '\000' then begin
              a.(!w) <- items.(j);
              incr w
            end
          done;
          Olar_util.Vec.push out (Itemset.of_sorted_array_unchecked a)
        end)
    txns;
  Counter.add stats.Stats.trimmed_items !dropped;
  Olar_util.Vec.to_array out

(* Pass 1: count single items; optionally build the pair hash table. *)
let pass1 stats config db ~minsup =
  Counter.incr stats.Stats.passes;
  let buckets = buckets_for_pass config 1 in
  let table = Option.map (fun b -> Array.make b 0) buckets in
  let freq = Array.make (Database.num_items db) 0 in
  Database.iter
    (fun txn ->
      let items = Itemset.as_array txn in
      let n = Array.length items in
      for a = 0 to n - 1 do
        freq.(items.(a)) <- freq.(items.(a)) + 1
      done;
      match table with
      | None -> ()
      | Some h ->
        let b = Array.length h in
        for a = 0 to n - 1 do
          let ha = fnv_step fnv_basis items.(a) in
          for c = a + 1 to n - 1 do
            let slot = fnv_finish (fnv_step ha items.(c)) mod b in
            h.(slot) <- h.(slot) + 1
          done
        done)
    db;
  Counter.add stats.Stats.candidates (Database.num_items db);
  let entries = Olar_util.Vec.create () in
  Array.iteri
    (fun i c -> if c >= minsup then Olar_util.Vec.push entries (Itemset.singleton i, c))
    freq;
  (Olar_util.Vec.to_array entries, table)

(* One slice of a level pass: count [candidates] over txns[lo, hi) into a
   fresh structure, optionally hashing (k+1)-combinations into a fresh
   table. Pure function of its slice, so slices run on separate domains. *)
let count_slice counting ~k ~candidates ~buckets txns lo hi =
  let counter = make_counter counting ~k candidates in
  let table = Option.map (fun b -> Array.make b 0) buckets in
  for t = lo to hi - 1 do
    let txn = txns.(t) in
    counter.counter_transaction txn;
    match table with
    | None -> ()
    | Some h ->
      let b = Array.length h in
      iter_combinations (Itemset.as_array txn) (k + 1) (fun buf ->
          let slot = fnv buf (k + 1) mod b in
          h.(slot) <- h.(slot) + 1)
  done;
  (counter.counter_results (), table)

(* Merge slice results: the counting structures received identical
   candidate sets, so their sorted outputs align positionally. *)
let merge_slices parts =
  match parts with
  | [] -> invalid_arg "Levelwise.merge_slices"
  | [ one ] -> one
  | (first_counts, first_table) :: rest ->
    let counts = Array.copy first_counts in
    let table = Option.map Array.copy first_table in
    List.iter
      (fun (more_counts, more_table) ->
        Array.iteri
          (fun i (x, c) ->
            let x0, c0 = counts.(i) in
            assert (Itemset.equal x0 x);
            counts.(i) <- (x0, c0 + c))
          more_counts;
        match (table, more_table) with
        | Some acc, Some h -> Array.iteri (fun i v -> acc.(i) <- acc.(i) + v) h
        | None, None -> ()
        | Some _, None | None, Some _ -> assert false)
      rest;
    (counts, table)

(* Count [candidates] over [txns], optionally building the next level's
   hash table over (k+1)-combinations of each transaction. With
   [domains] > 1 the transaction range is sliced across domains. *)
let count_level counting ~domains ~k ~buckets txns candidates =
  let n = Array.length txns in
  let d = max 1 (min domains n) in
  if d = 1 then count_slice counting ~k ~candidates ~buckets txns 0 n
  else begin
    let slice i =
      let lo = i * n / d and hi = (i + 1) * n / d in
      (lo, hi)
    in
    let workers =
      List.init (d - 1) (fun i ->
          let lo, hi = slice (i + 1) in
          Domain.spawn (fun () ->
              count_slice counting ~k ~candidates ~buckets txns lo hi))
    in
    let lo0, hi0 = slice 0 in
    let own = count_slice counting ~k ~candidates ~buckets txns lo0 hi0 in
    merge_slices (own :: List.map Domain.join workers)
  end

let count config ~k txns candidates =
  fst
    (count_level config.counting ~domains:config.domains ~k ~buckets:None txns
       candidates)

(* Pass k >= 2: count [candidates]. *)
let pass_k stats config ~k txns candidates =
  Counter.incr stats.Stats.passes;
  Counter.add stats.Stats.candidates (Array.length candidates);
  count_level config.counting ~domains:config.domains ~k
    ~buckets:(buckets_for_pass config k) txns candidates

(* The level-2 candidates: every pair of frequent [items] (increasing)
   whose bucket in [table] reaches [minsup], enumerated in lex order
   with each pair hashed inline; no table keeps them all. *)
let pair_candidates stats ~minsup table items =
  match table with
  | None -> Candidate.pairs_of_items items
  | Some h ->
    let b = Array.length h in
    let n = Array.length items in
    let out = Olar_util.Vec.create () in
    for a = 0 to n - 1 do
      let ha = fnv_step fnv_basis items.(a) in
      for c = a + 1 to n - 1 do
        if h.(fnv_finish (fnv_step ha items.(c)) mod b) >= minsup then
          Olar_util.Vec.push out
            (Itemset.of_sorted_array_unchecked [| items.(a); items.(c) |])
      done
    done;
    Counter.add stats.Stats.hash_pruned
      ((n * (n - 1) / 2) - Olar_util.Vec.length out);
    Olar_util.Vec.to_array out

let apply_hash_filter stats ~minsup table candidates =
  match table with
  | None -> candidates
  | Some h ->
    let b = Array.length h in
    let kept = filter_array (fun c -> h.(bucket_of_itemset b c) >= minsup) candidates in
    Counter.add stats.Stats.hash_pruned (Array.length candidates - Array.length kept);
    kept

(* The level-[k] candidates (k >= 2) from the frequent (k-1)-itemsets
   [prev], filtered by [table] when present. *)
let candidates_of stats ~minsup ~k table prev =
  if k = 2 then
    pair_candidates stats ~minsup table
      (Array.map (fun (x, _) -> Itemset.min_item x) prev)
  else begin
    let frequent = Array.map fst prev in
    let members = Itemset.Table.create (Array.length frequent) in
    Array.iter (fun x -> Itemset.Table.replace members x ()) frequent;
    apply_hash_filter stats ~minsup table
      (Candidate.generate ~frequent ~is_frequent:(Itemset.Table.mem members))
  end

(* Reusable levels from [seed] at the new threshold: the longest prefix of
   non-empty completed levels. Returns them newest-first. *)
let reuse_from_seed seed ~minsup ~db_size =
  if Frequent.threshold seed > minsup then
    invalid_arg "Levelwise.mine: seed threshold above minsup";
  if Frequent.db_size seed <> db_size then
    invalid_arg "Levelwise.mine: seed from a different database";
  let restricted = Frequent.restrict seed ~threshold:minsup in
  let usable = min (Frequent.completed_levels seed) (Frequent.max_level restricted) in
  let rec take k acc =
    if k > usable then begin
      (* A complete seed whose restriction fits entirely inside the
         completed prefix is the whole answer at [minsup]: frequent
         itemsets at the higher threshold are a subset of the seed's. *)
      let fixpoint =
        Frequent.complete seed && usable = Frequent.max_level restricted
      in
      (acc, fixpoint)
    end
    else
      let entries = Frequent.level restricted k in
      if Array.length entries = 0 then (acc, true) (* fixpoint inside seed *)
      else take (k + 1) (entries :: acc)
  in
  take 1 []

let mine ?(obs = Obs.disabled) ?stats ?cap ?max_level ?seed config db
    ~minsup =
  if minsup < 1 then invalid_arg "Levelwise.mine: minsup";
  (match cap with
  | Some c when c < 1 -> invalid_arg "Levelwise.mine: cap"
  | _ -> ());
  (match max_level with
  | Some m when m < 1 -> invalid_arg "Levelwise.mine: max_level"
  | _ -> ());
  let stats = Option.value stats ~default:no_stats in
  let db_size = Database.size db in
  let num_items = Database.num_items db in
  let over_cap total = match cap with Some c -> total > c | None -> false in
  let past_max_level k = match max_level with Some m -> k > m | None -> false in
  (* [levels_rev]: completed levels, newest first. [fixpoint]: an empty
     level was derived, no deeper level can exist. *)
  let seeded_levels, seeded_fixpoint =
    match seed with
    | None -> ([], false)
    | Some seed -> reuse_from_seed seed ~minsup ~db_size
  in
  let finish ~levels_rev ~complete ~completed =
    let levels = List.rev levels_rev in
    Frequent.v ~db_size ~threshold:minsup ~levels ~complete
      ~completed_levels:completed
  in
  let rec run ~levels_rev ~k ~total ~txns ~hash_table =
    (* Invariant: levels 1..k-1 are in [levels_rev]; [txns] is the
       (possibly trimmed) database for pass k; [hash_table] filters the
       level-k candidates when present. *)
    if over_cap total then finish ~levels_rev ~complete:false ~completed:(k - 1)
    else if past_max_level k then
      finish ~levels_rev ~complete:false ~completed:(k - 1)
    else begin
      let prev =
        match levels_rev with
        | [] -> [||]
        | entries :: _ -> entries
      in
      if k > 1 && Array.length prev = 0 then
        finish ~levels_rev ~complete:true ~completed:(k - 1)
      else begin
        let entries, next_table, next_txns =
          pass_span obs ~k (fun () ->
              let entries, next_table =
                if k = 1 then
                  Obs.maybe_span obs "mine.count" (fun () ->
                      pass1 stats config db ~minsup)
                else begin
                  let candidates =
                    Obs.maybe_span obs "mine.candidates" (fun () ->
                        candidates_of stats ~minsup ~k hash_table prev)
                  in
                  if Array.length candidates = 0 then ([||], None)
                  else
                    Obs.maybe_span obs "mine.count" (fun () ->
                        let counted, next_table =
                          pass_k stats config ~k txns candidates
                        in
                        (frequent_entries ~minsup counted, next_table))
                end
              in
              let next_txns =
                if config.trim && Array.length entries > 0 then
                  Obs.maybe_span obs "mine.trim" (fun () ->
                      trim_transactions stats ~next_k:(k + 1)
                        ~alive:(alive_items ~num_items entries)
                        txns)
                else txns
              in
              (entries, next_table, next_txns))
        in
        Counter.add stats.Stats.frequent (Array.length entries);
        let total = total + Array.length entries in
        let levels_rev = entries :: levels_rev in
        if Array.length entries = 0 then
          (* Fixpoint: strip the trailing empty level for a tidy result. *)
          finish
            ~levels_rev:(List.tl levels_rev)
            ~complete:true ~completed:k
        else
          run ~levels_rev ~k:(k + 1) ~total ~txns:next_txns
            ~hash_table:next_table
      end
    end
  in
  (* A seed that only covers level 1 is a bad deal under hash filtering:
     resuming at level 2 forfeits the pair table built during pass 1 and
     counts every join candidate, which costs more than redoing the single
     cheap pass. Only applies when more mining is actually needed. *)
  let seeded_levels =
    match seeded_levels with
    | [ _ ] when config.hash <> No_hash && not seeded_fixpoint -> []
    | levels -> levels
  in
  let completed = List.length seeded_levels in
  let total =
    List.fold_left (fun acc entries -> acc + Array.length entries) 0 seeded_levels
  in
  if seeded_fixpoint then
    finish ~levels_rev:seeded_levels ~complete:true ~completed
  else if over_cap total then
    finish ~levels_rev:seeded_levels ~complete:false ~completed
  else begin
    match seeded_levels with
    | [] ->
      let txns = Array.init db_size (Database.get db) in
      run ~levels_rev:[] ~k:1 ~total:0 ~txns ~hash_table:None
    | newest :: _ as seeded ->
      (* Resume counting at level [completed]+1 over a freshly trimmed
         database; no hash table is available for the resumed level. *)
      let txns = Array.init db_size (Database.get db) in
      let txns =
        if config.trim then
          Obs.maybe_span obs "mine.trim" (fun () ->
              trim_transactions stats ~next_k:(completed + 1)
                ~alive:(alive_items ~num_items newest)
                txns)
        else txns
      in
      run ~levels_rev:seeded ~k:(completed + 1) ~total ~txns ~hash_table:None
  end
