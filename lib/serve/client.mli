(** Blocking client for the synthesis daemon's socket.

    Everything that can go wrong on the wire — no socket file, refused
    connection, a response cut off mid-line (the [serve.torn_connection]
    site), unparsable JSON — is an [Error] with a printable message. The
    CLI maps every such error to exit code 5: the request may or may not
    have executed server-side, but this client cannot say. *)

type connection

val connect : socket:string -> (connection, string) result

val request : connection -> Protocol.request -> (Protocol.response, string) result
(** Send one request line, block for one response line. The connection
    stays usable for further requests on success. When the send fails
    (the server shed the connection and closed it), a response line the
    server wrote before closing is still read and returned, so an
    over-budget client gets the typed {!Protocol.Overloaded} answer
    rather than a send error. *)

val close : connection -> unit

val roundtrip : socket:string -> Protocol.request -> (Protocol.response, string) result
(** Connect, send one request, read the response, close. *)
