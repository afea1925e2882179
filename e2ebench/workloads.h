// The benchmark's three workloads. Each iteration builds a fresh world
// (kernel, programs, seeded inputs, agent objects), runs every client to
// exit, and checks the outputs.
//
//   make     1 client: /bin/make over eight seeded C programs, under
//            UnionAgent (paper Table 3-3, union row). Fork/exec/wait4 dense.
//   andrew   4 clients: /usr/bin/andrew over one shared seeded source tree,
//            each under its own DfsTraceAgent (paper §3.5.3). Pathname and
//            data heavy; the tree fits the 4096-entry name cache.
//   ringmix  4 clients, no agents: BatchClient rounds of 64 ring entries
//            (stat/access/fstat/lseek/read plus 1 in 8 writes) over 8192
//            shared paths, about twice the name cache's capacity.
#ifndef E2EBENCH_WORKLOADS_H_
#define E2EBENCH_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "e2ebench/probe.h"
#include "src/kernel/kernel.h"

namespace e2ebench {

struct SetupTimes {
  double kernel_ms = 0;
  double programs_ms = 0;
  double inputs_ms = 0;  // seeded inputs installed into the world, plus agent objects
};

// Spans the ring workload's clients record around their own kernel entries
// (BatchClient::Flush and the synchronous open/close calls) in traced runs.
struct RingSpans {
  std::vector<double> flush_us;
  std::vector<int> flush_entries;
  std::vector<double> sync_us;
  std::vector<int> sync_numbers;
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds a fresh world. With `recorder` set, every client's agent stack is
  // bracketed by the probes and ring clients time their kernel entries.
  virtual void Build(SpanRecorder* recorder, SetupTimes* times) = 0;
  // Spawns every client and waits until all have exited.
  virtual bool Run(std::string* error) = 0;
  // Checks the world's outputs against what the seeded inputs predict.
  virtual bool Check(std::string* error) = 0;
  // One untimed iteration that also establishes any reference outputs.
  virtual bool WarmUp(std::string* error);
  // Ring spans from the last Run (empty unless traced ringmix).
  virtual RingSpans TakeRingSpans() { return {}; }
  virtual int clients() const = 0;
  // Whether any client of the last world built runs under agents.
  bool has_agents() const;

  ia::Kernel& kernel() { return *kernel_; }
  void Teardown() { kernel_.reset(); }

 protected:
  struct Client {
    ia::SpawnOptions spawn;
    std::vector<ia::AgentRef> agents;
  };
  // Constructs the kernel and installs the standard programs.
  void BuildBase(SetupTimes* times);
  bool RunClients(std::string* error);

  std::unique_ptr<ia::Kernel> kernel_;
  std::vector<Client> clients_;
};

// Returns null for an unknown workload name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed);

// FNV-1a, the digest the output checks compare.
uint64_t Digest(const std::string& bytes);

}  // namespace e2ebench

#endif  // E2EBENCH_WORKLOADS_H_
