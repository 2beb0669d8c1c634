// The serve front-end loop: reads protocol lines (io/request_io.h) from an
// input stream, drives a MiningService, writes responses to an output
// stream. examples/serve_cli.cpp wraps it around stdin/stdout; the session
// test and the CI serve-smoke step drive the same function over string
// streams and scripted files, so "what the server does" has exactly one
// definition.
//
// Output is deterministic for a given script and corpus: responses carry
// counts, epochs, and canonical pattern lines — never wall-clock times —
// which is what makes golden-transcript diffing sound.

#ifndef GSGROW_SERVE_SERVE_SESSION_H_
#define GSGROW_SERVE_SERVE_SESSION_H_

#include <cstddef>
#include <istream>
#include <ostream>

#include "serve/mining_service.h"

namespace gsgrow {

/// The longest request line a session reads, in bytes without the newline.
/// A longer line is discarded up to its newline, never held whole, and
/// answered with one "error InvalidArgument ..." line.
inline constexpr size_t kMaxRequestLineBytes = size_t{16} << 20;

/// Runs the protocol loop until `quit` or EOF. Malformed lines, and lines
/// over kMaxRequestLineBytes, answer with one "error ..." line and the
/// session continues — a serving process must outlive bad input. Returns
/// the number of commands that answered with an error (0 for a clean
/// session), so scripted callers can gate on it. A
/// `batch` still open at `quit` or end of input is not run; it answers one
/// "error ... batch not run (N queued)" line and counts as an error.
int RunServeSession(MiningService& service, std::istream& in,
                    std::ostream& out);

}  // namespace gsgrow

#endif  // GSGROW_SERVE_SERVE_SESSION_H_
