/**
 * @file
 * Instrumentation entry points for tpre::obs. Hot-path code uses
 * these macros only — never the registry/tracer classes directly.
 * The registry carries per-run, per-task and histogram metrics;
 * per-event simulator counts (trace-cache probes, buffer hits,
 * constructed traces, ...) live in the components' own stats and
 * in the trace-cache ledger, never here (DESIGN.md section 11).
 *
 * All counter/gauge/histogram names and trace categories must be
 * string literals: the metric name is resolved to a cell offset
 * once via a function-local static handle, and the tracer stores
 * the char pointers unescaped until export.
 */

#ifndef TPRE_OBS_OBS_HH
#define TPRE_OBS_OBS_HH

#include "obs/metrics.hh"
#include "obs/tracer.hh"

/** Bump counter @p name (a string literal) by n (default 1). */
#define TPRE_OBS_COUNT(name, ...)                                   \
    do {                                                            \
        static ::tpre::obs::Counter tpreObsCounter_{name};          \
        tpreObsCounter_.add(__VA_ARGS__);                           \
    } while (0)

/** Move gauge @p name by the signed @p delta. */
#define TPRE_OBS_GAUGE_ADD(name, delta)                             \
    do {                                                            \
        static ::tpre::obs::Gauge tpreObsGauge_{name};              \
        tpreObsGauge_.add(delta);                                   \
    } while (0)

/** Record @p value into histogram @p name (default bounds). */
#define TPRE_OBS_HIST(name, value)                                  \
    do {                                                            \
        static ::tpre::obs::Histogram tpreObsHist_{name};           \
        tpreObsHist_.record(value);                                 \
    } while (0)

/** Point event; (cat, name, domain, ts [, value]). */
#define TPRE_TRACE_INSTANT(...) ::tpre::obs::traceInstant(__VA_ARGS__)

/** Span event; (cat, name, domain, ts, dur [, value]). */
#define TPRE_TRACE_COMPLETE(...)                                    \
    ::tpre::obs::traceComplete(__VA_ARGS__)

/** Counter-track sample; (cat, name, domain, ts, value). */
#define TPRE_TRACE_COUNTER(...) ::tpre::obs::traceCounter(__VA_ARGS__)

#define TPRE_OBS_CONCAT2_(a, b) a##b
#define TPRE_OBS_CONCAT_(a, b) TPRE_OBS_CONCAT2_(a, b)

/** Wall-clock span covering the rest of the enclosing scope. */
#define TPRE_OBS_WALL_SPAN(cat, name)                               \
    ::tpre::obs::WallSpan TPRE_OBS_CONCAT_(tpreObsSpan_,            \
                                           __LINE__)(cat, name)

#endif // TPRE_OBS_OBS_HH
