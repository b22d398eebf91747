//===- Trace.h - In-memory spans for the traced benchmark run ---*- C++ -*-===//
//
// Part of the lift-cpp project. MIT licensed.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Span and counter recording for `liftbench --trace 1`. Spans are taken
/// in the benchmark's own files around calls into each library layer's
/// public entry points; nothing inside the library is instrumented. Each
/// span records its name, start, end, parent span and job id into a
/// per-thread buffer; the buffers are merged after the run, analysed for
/// per-layer self time, and written out as Chrome trace-event JSON
/// (viewable in Perfetto).
///
/// Recording is off by default. While it is off a Span costs one relaxed
/// atomic load, and counters and samples are dropped.
///
//===----------------------------------------------------------------------===//

#ifndef LIFT_PERFBENCH_TRACE_H
#define LIFT_PERFBENCH_TRACE_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {
namespace trace {

/// One finished span. Times are nanoseconds since the process epoch.
struct SpanRec {
  const char *Name = "";
  int64_t StartNs = 0;
  int64_t EndNs = 0;
  uint64_t Id = 0;
  uint64_t Parent = 0; ///< 0 = root
  uint64_t Job = 0;    ///< 0 = not inside a timed job (set-up work)
  uint32_t Tid = 0;
};

void setEnabled(bool On);
bool enabled();

/// RAII span. Its parent is the innermost open span on this thread; it
/// inherits that span's job id unless \p Job is given (a job root).
class Span {
public:
  explicit Span(const char *Name, uint64_t Job = 0);
  ~Span() { end(); }
  Span(const Span &) = delete;
  Span &operator=(const Span &) = delete;

  /// Closes the span early; returns its duration in ms (0 when tracing
  /// is off). Idempotent.
  double end();

private:
  bool Active = false;
  double Ms = 0;
  SpanRec Rec;
};

/// Adds \p V to a per-layer counter. Only counts inside a timed job
/// unless \p Always (for counters read outside any job).
void count(const std::string &Name, double V, bool Always = false);
/// Records one sample of a per-layer quantity. Only samples inside a
/// timed job unless \p Always (for work that happens only in set-up).
void sample(const std::string &Name, double V, bool Always = false);

/// Everything recorded so far, merged in (thread, order) sequence. Call
/// only once the threads that record have finished.
std::vector<SpanRec> spans();
std::map<std::string, double> counters();
std::map<std::string, std::vector<double>> samples();

/// Self time of every span in \p All: its duration minus the union of
/// its children's intervals. Same order as \p All, in milliseconds.
std::vector<double> selfTimesMs(const std::vector<SpanRec> &All);

/// Writes \p All as Chrome trace-event JSON ("X" complete events; the
/// span id, parent and job go into args). \p Meta lands in "otherData".
bool writeChromeTrace(const std::string &Path,
                      const std::vector<SpanRec> &All,
                      const std::map<std::string, std::string> &Meta);

} // namespace trace
} // namespace perfbench

#endif // LIFT_PERFBENCH_TRACE_H
