type t = {
  id : int;
  op : Operator.t;
  site : int;
  info : string;
  design : Mutsamp_hdl.Ast.design;
  program : Mutsamp_netlist.Program.t option Atomic.t;
}

let to_string m = Printf.sprintf "#%d %s @%d: %s" m.id (Operator.name m.op) m.site m.info

let pp fmt m = Format.pp_print_string fmt (to_string m)
