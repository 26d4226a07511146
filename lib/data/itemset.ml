(* Representation invariant: strictly increasing array of non-negative
   item ids. Enforced by every constructor except
   [of_sorted_array_unchecked]. *)
type t = Item.t array

let empty : t = [||]

let check_item i name = if i < 0 then invalid_arg name

let singleton i =
  check_item i "Itemset.singleton";
  [| i |]

let dedup_sorted a =
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let out = Array.make n a.(0) in
    let k = ref 1 in
    for i = 1 to n - 1 do
      if a.(i) <> out.(!k - 1) then begin
        out.(!k) <- a.(i);
        incr k
      end
    done;
    if !k = n then out else Array.sub out 0 !k
  end

let of_array a =
  Array.iter (fun i -> check_item i "Itemset.of_array") a;
  let a = Array.copy a in
  Array.sort Int.compare a;
  dedup_sorted a

let of_list l = of_array (Array.of_list l)

let of_sorted_array_unchecked a = a

let cardinal = Array.length
let is_empty x = Array.length x = 0

let mem i x =
  let rec search lo hi =
    if lo >= hi then false
    else
      let mid = (lo + hi) / 2 in
      if x.(mid) = i then true
      else if x.(mid) < i then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length x)

let nth x k =
  if k < 0 || k >= Array.length x then invalid_arg "Itemset.nth";
  x.(k)

let min_item x = if is_empty x then invalid_arg "Itemset.min_item" else x.(0)
let max_item x = if is_empty x then invalid_arg "Itemset.max_item" else x.(Array.length x - 1)

let to_list = Array.to_list
let to_array = Array.copy
let as_array x = x
let iter = Array.iter
let fold f x acc = Array.fold_left (fun acc i -> f i acc) acc x

let add i x =
  check_item i "Itemset.add";
  if mem i x then x
  else begin
    let n = Array.length x in
    let out = Array.make (n + 1) i in
    let j = ref 0 in
    while !j < n && x.(!j) < i do
      out.(!j) <- x.(!j);
      incr j
    done;
    out.(!j) <- i;
    Array.blit x !j out (!j + 1) (n - !j);
    out
  end

let remove i x =
  if not (mem i x) then x
  else begin
    let n = Array.length x in
    let out = Array.make (n - 1) 0 in
    let k = ref 0 in
    for j = 0 to n - 1 do
      if x.(j) <> i then begin
        out.(!k) <- x.(j);
        incr k
      end
    done;
    out
  end

let union x y =
  let nx = Array.length x and ny = Array.length y in
  if nx = 0 then y
  else if ny = 0 then x
  else begin
    let out = Array.make (nx + ny) 0 in
    let i = ref 0 and j = ref 0 and k = ref 0 in
    while !i < nx && !j < ny do
      let xi = x.(!i) and yj = y.(!j) in
      if xi < yj then begin out.(!k) <- xi; incr i end
      else if xi > yj then begin out.(!k) <- yj; incr j end
      else begin out.(!k) <- xi; incr i; incr j end;
      incr k
    done;
    while !i < nx do out.(!k) <- x.(!i); incr i; incr k done;
    while !j < ny do out.(!k) <- y.(!j); incr j; incr k done;
    if !k = nx + ny then out else Array.sub out 0 !k
  end

let inter x y =
  let nx = Array.length x and ny = Array.length y in
  let out = Array.make (min nx ny) 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < nx && !j < ny do
    let xi = x.(!i) and yj = y.(!j) in
    if xi < yj then incr i
    else if xi > yj then incr j
    else begin
      out.(!k) <- xi;
      incr i; incr j; incr k
    end
  done;
  if !k = Array.length out then out else Array.sub out 0 !k

let diff x y =
  let nx = Array.length x and ny = Array.length y in
  let out = Array.make nx 0 in
  let i = ref 0 and j = ref 0 and k = ref 0 in
  while !i < nx && !j < ny do
    let xi = x.(!i) and yj = y.(!j) in
    if xi < yj then begin out.(!k) <- xi; incr i; incr k end
    else if xi > yj then incr j
    else begin incr i; incr j end
  done;
  while !i < nx do out.(!k) <- x.(!i); incr i; incr k done;
  if !k = nx then out else Array.sub out 0 !k

let subset x y =
  let nx = Array.length x and ny = Array.length y in
  if nx > ny then false
  else begin
    let rec loop i j =
      if i >= nx then true
      else if j >= ny then false
      else if nx - i > ny - j then false
      else if x.(i) = y.(j) then loop (i + 1) (j + 1)
      else if x.(i) > y.(j) then loop i (j + 1)
      else false
    in
    loop 0 0
  end

let strict_subset x y = Array.length x < Array.length y && subset x y

let disjoint x y =
  let nx = Array.length x and ny = Array.length y in
  let rec loop i j =
    if i >= nx || j >= ny then true
    else if x.(i) = y.(j) then false
    else if x.(i) < y.(j) then loop (i + 1) j
    else loop i (j + 1)
  in
  loop 0 0

let parents x =
  Array.to_list (Array.map (fun i -> (i, remove i x)) x)

let subsets x =
  let n = Array.length x in
  if n > 20 then invalid_arg "Itemset.subsets: set too large";
  let total = 1 lsl n in
  let out = ref [] in
  for mask = total - 1 downto 0 do
    let card = ref 0 in
    for b = 0 to n - 1 do
      if mask land (1 lsl b) <> 0 then incr card
    done;
    let sub = Array.make !card 0 in
    let k = ref 0 in
    for b = 0 to n - 1 do
      if mask land (1 lsl b) <> 0 then begin
        sub.(!k) <- x.(b);
        incr k
      end
    done;
    out := sub :: !out
  done;
  !out

let equal x y = x = (y : t)

let proper_nonempty_subsets x =
  List.filter (fun s -> not (is_empty s) && not (equal s x)) (subsets x)

let compare_lex (x : t) (y : t) =
  let nx = Array.length x and ny = Array.length y in
  let rec loop i =
    if i >= nx && i >= ny then 0
    else if i >= nx then -1
    else if i >= ny then 1
    else
      let c = Int.compare x.(i) y.(i) in
      if c <> 0 then c else loop (i + 1)
  in
  loop 0

let compare (x : t) (y : t) =
  let c = Int.compare (Array.length x) (Array.length y) in
  if c <> 0 then c else compare_lex x y

let hash (x : t) =
  (* FNV-1a over the item ids; good dispersion for short int sequences. *)
  let h = ref 0x3f29ce484222325 in
  Array.iter
    (fun i ->
      h := !h lxor i;
      h := !h * 0x100000001b3)
    x;
  !h land max_int

let pp fmt x =
  Format.pp_print_char fmt '{';
  Array.iteri
    (fun k i ->
      if k > 0 then Format.pp_print_char fmt ',';
      Format.pp_print_int fmt i)
    x;
  Format.pp_print_char fmt '}'

let pp_named vocab fmt x =
  Format.pp_print_char fmt '{';
  Array.iteri
    (fun k i ->
      if k > 0 then Format.pp_print_char fmt ',';
      Format.pp_print_string fmt (Item.Vocab.name vocab i))
    x;
  Format.pp_print_char fmt '}'

let to_string x = Format.asprintf "%a" pp x

module Key = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
  let compare = compare
end

module Table = Hashtbl.Make (Key)
module Map = Map.Make (Key)
module Set = Set.Make (Key)
