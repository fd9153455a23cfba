// The three workloads. Each fills `result` with its correctness checks and,
// depending on args.trace, its end-to-end or per-layer metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "common.h"

namespace perfbench {

// Memcached over the real socket plane: 2 server loop threads, one client
// thread driving a closed loop of pipelined GET/SET over zipfian keys.
void RunServeRead(const Args& args, Result* result);

// Memcached in-process: SET-new / DEL-oldest / SET-overwrite thirds over a
// constant live set, one thread calling Handle() with no think time.
void RunWriteChurn(const Args& args, Result* result);

// FaultExperiment f1-f12 under Arthas (purge mode), with consistency
// evaluation.
void RunFaultMatrix(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
