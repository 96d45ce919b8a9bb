type 'a t = {
  capacity : int;
  tbl : (string, 'a) Hashtbl.t;
  order : string Queue.t;  (* keys in insertion order, oldest first *)
}

let create ?(capacity = 1 lsl 20) () =
  if capacity < 1 then invalid_arg "Boundtbl.create: capacity < 1";
  { capacity; tbl = Hashtbl.create 64; order = Queue.create () }

let find t key = Hashtbl.find_opt t.tbl key

let add t key v =
  if Hashtbl.mem t.tbl key then Hashtbl.replace t.tbl key v
  else begin
    Hashtbl.add t.tbl key v;
    Queue.push key t.order;
    if Queue.length t.order > t.capacity then
      Hashtbl.remove t.tbl (Queue.pop t.order)
  end

let length t = Hashtbl.length t.tbl
let to_list t = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.tbl []
