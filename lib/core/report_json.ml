let write_file ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let buf = Buffer.create 65536 in
      Obs.Json.write buf json;
      Buffer.add_char buf '\n';
      Buffer.output_buffer oc buf)
