#ifndef RIGPM_UTIL_CONCURRENCY_H_
#define RIGPM_UTIL_CONCURRENCY_H_

#include <cstddef>
#include <cstdint>

namespace rigpm {

/// Resolves a requested worker count to the number of threads to actually
/// spawn — the one policy the worker pools share (EvaluateBatch, the
/// daemon's query workers): 0 means std::thread::hardware_concurrency()
/// (falling back to 2 when the runtime reports 0), and the result never
/// exceeds `work_items` nor drops below 1.
uint32_t ResolveWorkerCount(uint32_t requested, size_t work_items);

}  // namespace rigpm

#endif  // RIGPM_UTIL_CONCURRENCY_H_
