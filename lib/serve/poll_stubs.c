/* poll(2) for the serve loop and the client's connect wait. Events
   cross the boundary as small bit sets (1 readable, 2 writable, 4 error
   or hang-up, the last only reported), so the OCaml side needs no
   platform constants. The runtime lock is released for the wait; an
   interrupted wait (EINTR) reports no ready descriptor. */

#include <errno.h>
#include <poll.h>
#include <stdlib.h>
#include <caml/mlvalues.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

CAMLprim value ccomp_serve_poll(value fds, value events, value revents, value vn,
                                value vtimeout)
{
  CAMLparam3(fds, events, revents);
  int n = Int_val(vn), ready, err;
  struct pollfd *p = malloc((n > 0 ? n : 1) * sizeof *p);
  if (p == NULL) caml_raise_out_of_memory();
  for (int i = 0; i < n; i++) {
    int ev = Int_val(Field(events, i));
    p[i].fd = Int_val(Field(fds, i));
    p[i].events = (ev & 1 ? POLLIN : 0) | (ev & 2 ? POLLOUT : 0);
  }
  caml_enter_blocking_section();
  ready = poll(p, n, Int_val(vtimeout));
  err = errno;
  caml_leave_blocking_section();
  for (int i = 0; i < n && ready >= 0; i++) {
    short r = p[i].revents;
    Store_field(revents, i, Val_int((r & POLLIN ? 1 : 0) | (r & POLLOUT ? 2 : 0)
                                    | (r & (POLLERR | POLLHUP | POLLNVAL) ? 4 : 0)));
  }
  free(p);
  if (ready < 0 && err != EINTR) caml_unix_error(err, "poll", Nothing);
  CAMLreturn(Val_int(ready < 0 ? 0 : ready));
}
