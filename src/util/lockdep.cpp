#include "reldev/util/lockdep.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>  // NOLINT(reldev-no-raw-std-mutex) -- the checker's own
                  // bookkeeping lock must not recurse into the checker.
#include <utility>

#if defined(RELDEV_LOCKDEP)
#include <execinfo.h>

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <unordered_set>
#include <vector>
#endif

namespace reldev::lockdep {

namespace {

std::atomic<std::uint64_t> g_violations{0};

std::mutex& handler_mutex() {
  static std::mutex m;
  return m;
}

std::function<void(const Violation&)>& handler_slot() {
  static std::function<void(const Violation&)> slot;
  return slot;
}

struct ThreadFlags {
  int in_hook = 0;        // re-entrancy guard (handler taking locks, ...)
  int allow_blocking = 0; // AllowBlocking scope depth
};

ThreadFlags& flags() {
  thread_local ThreadFlags f;
  return f;
}

}  // namespace

const char* violation_kind_name(ViolationKind kind) noexcept {
  switch (kind) {
    case ViolationKind::kOrderInversion:
      return "order-inversion";
    case ViolationKind::kBlockingUnderLock:
      return "blocking-under-lock";
    case ViolationKind::kWaitWithLocksHeld:
      return "wait-with-locks-held";
  }
  return "unknown";
}

std::uint64_t violation_count() noexcept {
  return g_violations.load(std::memory_order_relaxed);
}

void set_handler(std::function<void(const Violation&)> handler) {
  const std::lock_guard<std::mutex> lock(handler_mutex());  // NOLINT
  handler_slot() = std::move(handler);
}

AllowBlocking::AllowBlocking(const char* reason) noexcept : reason_(reason) {
  (void)reason_;
  ++flags().allow_blocking;
}

AllowBlocking::~AllowBlocking() { --flags().allow_blocking; }

#if !defined(RELDEV_LOCKDEP)

bool enabled() noexcept { return false; }
int held_count() noexcept { return 0; }
void reset() { g_violations.store(0, std::memory_order_relaxed); }

#else  // RELDEV_LOCKDEP

namespace {

[[noreturn]] void default_handler(const Violation& violation) {
  std::fprintf(stderr, "%s\n", violation.text.c_str());
  std::fflush(stderr);
  std::abort();
}

void emit(Violation violation) {
  g_violations.fetch_add(1, std::memory_order_relaxed);
  std::function<void(const Violation&)> handler;
  {
    const std::lock_guard<std::mutex> lock(handler_mutex());  // NOLINT
    handler = handler_slot();
  }
  if (handler) {
    handler(violation);
  } else {
    default_handler(violation);
  }
}

/// One lock the current thread holds.
struct HeldLock {
  const void* mutex;
  std::uint32_t cls;
  const char* site_file;
  unsigned site_line;
};

std::vector<HeldLock>& held() {
  thread_local std::vector<HeldLock> stack;
  return stack;
}

struct ClassInfo {
  std::string label;  // "name" or "file:line"
};

/// A recorded ordering: some thread once acquired `to` while holding
/// `from`, at this stack, with this full held chain.
struct EdgeInfo {
  std::uint32_t from = 0;
  std::uint32_t to = 0;
  std::string chain;  // held locks at record time, one per line
  std::string stack;  // symbolized backtrace at record time
};

constexpr std::uint64_t edge_key(std::uint32_t from, std::uint32_t to) {
  return (static_cast<std::uint64_t>(from) << 32) | to;
}

/// Global state, allocated once and deliberately leaked: mutexes are
/// locked during static destruction (logging, pools), and the checker
/// must outlive all of them.
struct Graph {
  std::mutex mutex;  // NOLINT(reldev-no-raw-std-mutex) -- see file header
  std::vector<ClassInfo> classes;  // index = class id - 1
  std::unordered_map<std::string, std::uint32_t> by_key;
  std::unordered_map<std::uint64_t, EdgeInfo> edges;
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> adjacency;
  std::unordered_set<std::uint64_t> reported_inversions;
  std::unordered_set<std::string> reported_blocking;
};

Graph& graph() {
  static Graph* g = new Graph;
  return *g;
}

/// Symbolized backtrace of the caller, skipping `skip` innermost frames
/// (the capture machinery itself).
std::string capture_stack(int skip) {
  void* frames[32];
  const int depth = ::backtrace(frames, 32);
  if (depth <= skip) return "    <no stack>";
  char** symbols = ::backtrace_symbols(frames + skip, depth - skip);
  std::ostringstream out;
  for (int i = 0; i < depth - skip; ++i) {
    out << "    #" << i << ' '
        << (symbols != nullptr ? symbols[i] : "<unknown>");
    if (i + 1 < depth - skip) out << '\n';
  }
  std::free(symbols);  // NOLINT(cppcoreguidelines-no-malloc)
  return out.str();
}

/// Requires graph().mutex held.
std::string class_label_locked(const Graph& g, std::uint32_t cls) {
  if (cls == 0 || cls > g.classes.size()) return "<unregistered>";
  return g.classes[cls - 1].label;
}

/// Requires graph().mutex held. The current thread's held chain, one lock
/// per line, innermost last.
std::string describe_held_locked(const Graph& g) {
  std::ostringstream out;
  const auto& stack = held();
  for (std::size_t i = 0; i < stack.size(); ++i) {
    out << "    #" << i << ' ' << class_label_locked(g, stack[i].cls)
        << " (locked at " << stack[i].site_file << ':' << stack[i].site_line
        << ')';
    if (i + 1 < stack.size()) out << '\n';
  }
  if (stack.empty()) out << "    <none>";
  return out.str();
}

/// Requires graph().mutex held. True iff `to` can reach `target` through
/// recorded edges; fills `path` with the class chain to -> ... -> target.
bool find_path_locked(const Graph& g, std::uint32_t to, std::uint32_t target,
                      std::vector<std::uint32_t>& path) {
  if (to == target) {
    path.push_back(to);
    return true;
  }
  std::unordered_map<std::uint32_t, std::uint32_t> parent;
  std::vector<std::uint32_t> frontier{to};
  parent[to] = to;
  while (!frontier.empty()) {
    const std::uint32_t node = frontier.back();
    frontier.pop_back();
    const auto it = g.adjacency.find(node);
    if (it == g.adjacency.end()) continue;
    for (const std::uint32_t next : it->second) {
      if (parent.contains(next)) continue;
      parent[next] = node;
      if (next == target) {
        for (std::uint32_t walk = target; walk != to; walk = parent[walk]) {
          path.push_back(walk);
        }
        path.push_back(to);
        std::reverse(path.begin(), path.end());
        return true;
      }
      frontier.push_back(next);
    }
  }
  return false;
}

struct ScopedHook {
  ScopedHook() { ++flags().in_hook; }
  ~ScopedHook() { --flags().in_hook; }
};

}  // namespace

bool enabled() noexcept { return true; }

int held_count() noexcept { return static_cast<int>(held().size()); }

void reset() {
  Graph& g = graph();
  const std::lock_guard<std::mutex> lock(g.mutex);  // NOLINT
  g.edges.clear();
  g.adjacency.clear();
  g.reported_inversions.clear();
  g.reported_blocking.clear();
  held().clear();
  g_violations.store(0, std::memory_order_relaxed);
}

std::uint32_t register_class(const char* name, const char* file,
                             unsigned line) {
  std::string key;
  if (name != nullptr) {
    key = name;
  } else {
    key = std::string(file != nullptr ? file : "<unknown>") + ':' +
          std::to_string(line);
  }
  Graph& g = graph();
  const std::lock_guard<std::mutex> lock(g.mutex);  // NOLINT
  if (const auto it = g.by_key.find(key); it != g.by_key.end()) {
    return it->second;
  }
  g.classes.push_back(ClassInfo{key});
  const auto id = static_cast<std::uint32_t>(g.classes.size());
  g.by_key.emplace(std::move(key), id);
  return id;
}

void pre_acquire(const void* mutex, std::uint32_t cls, const char* site_file,
                 unsigned site_line) {
  (void)mutex;
  if (flags().in_hook > 0 || held().empty()) return;
  const ScopedHook hook;
  // Nested acquisition: every held lock is a would-be edge. Capture the
  // stack once up front — this path only runs while >= 1 lock is held,
  // which is rare by the library's own conventions.
  const std::string stack = capture_stack(/*skip=*/3);
  std::vector<Violation> pending;
  {
    Graph& g = graph();
    const std::lock_guard<std::mutex> lock(g.mutex);  // NOLINT
    const std::string chain = describe_held_locked(g);
    for (const HeldLock& h : held()) {
      if (h.cls == cls) continue;  // same-class nesting is not an ordering
      const std::uint64_t key = edge_key(h.cls, cls);
      if (g.edges.contains(key)) continue;
      std::vector<std::uint32_t> path;
      if (find_path_locked(g, cls, h.cls, path)) {
        if (!g.reported_inversions.insert(key).second) continue;
        std::ostringstream out;
        out << "lockdep: ORDER INVERSION (potential deadlock)\n"
            << "  thread is acquiring " << class_label_locked(g, cls)
            << " at " << site_file << ':' << site_line << "\n"
            << "  while holding:\n"
            << chain << "\n"
            << "  this acquisition stack:\n"
            << stack << "\n"
            << "  but the opposite order " << class_label_locked(g, cls);
        for (std::size_t i = 1; i < path.size(); ++i) {
          out << " -> " << class_label_locked(g, path[i]);
        }
        out << " was recorded earlier:";
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
          const auto it = g.edges.find(edge_key(path[i], path[i + 1]));
          if (it == g.edges.end()) continue;
          out << "\n  edge " << class_label_locked(g, path[i]) << " -> "
              << class_label_locked(g, path[i + 1]) << " held chain:\n"
              << it->second.chain << "\n"
              << "  recorded acquisition stack:\n"
              << it->second.stack;
        }
        pending.push_back(
            Violation{ViolationKind::kOrderInversion, out.str()});
        continue;  // do not record the inverted edge
      }
      EdgeInfo edge;
      edge.from = h.cls;
      edge.to = cls;
      edge.chain = chain;
      edge.stack = stack;
      g.edges.emplace(key, std::move(edge));
      g.adjacency[h.cls].push_back(cls);
    }
  }
  for (Violation& violation : pending) emit(std::move(violation));
}

void post_acquire(const void* mutex, std::uint32_t cls, const char* site_file,
                  unsigned site_line) {
  if (flags().in_hook > 0) return;
  held().push_back(HeldLock{mutex, cls, site_file, site_line});
}

void note_release(const void* mutex) noexcept {
  if (flags().in_hook > 0) return;
  auto& stack = held();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->mutex == mutex) {
      stack.erase(std::next(it).base());
      return;
    }
  }
}

WaitToken wait_begin(const void* mutex) {
  WaitToken token;
  if (flags().in_hook > 0) return token;
  auto& stack = held();
  for (auto it = stack.rbegin(); it != stack.rend(); ++it) {
    if (it->mutex == mutex) {
      token.found = true;
      token.cls = it->cls;
      token.site_file = it->site_file;
      token.site_line = it->site_line;
      stack.erase(std::next(it).base());
      break;
    }
  }
  if (!token.found || stack.empty()) return token;
  // Sleeping on a condition while other locks stay held parks those locks
  // for an unbounded time — every waiter for them inherits this wait.
  const ScopedHook hook;
  const std::string stack_text = capture_stack(/*skip=*/3);
  std::string text;
  bool fresh = false;
  {
    Graph& g = graph();
    const std::lock_guard<std::mutex> lock(g.mutex);  // NOLINT
    std::ostringstream out;
    out << "lockdep: CondVar wait on " << class_label_locked(g, token.cls)
        << " with other lock(s) held\n"
        << "  still held while sleeping:\n"
        << describe_held_locked(g) << "\n"
        << "  wait stack:\n"
        << stack_text;
    text = out.str();
    fresh = g.reported_blocking
                .insert("wait:" + class_label_locked(g, token.cls))
                .second;
  }
  if (fresh) emit(Violation{ViolationKind::kWaitWithLocksHeld, text});
  return token;
}

void wait_end(const void* mutex, const WaitToken& token) {
  if (!token.found || flags().in_hook > 0) return;
  // Waking reacquires the mutex while everything else the thread held is
  // still held — a genuine (re)acquisition for ordering purposes.
  pre_acquire(mutex, token.cls, token.site_file, token.site_line);
  held().push_back(
      HeldLock{mutex, token.cls, token.site_file, token.site_line});
}

void check_blocking(const char* what) {
  ThreadFlags& f = flags();
  if (f.in_hook > 0 || f.allow_blocking > 0 || held().empty()) return;
  const ScopedHook hook;
  const std::string stack_text = capture_stack(/*skip=*/3);
  std::string text;
  bool fresh = false;
  {
    Graph& g = graph();
    const std::lock_guard<std::mutex> lock(g.mutex);  // NOLINT
    const std::string top = class_label_locked(g, held().back().cls);
    fresh = g.reported_blocking.insert(std::string(what) + '@' + top).second;
    std::ostringstream out;
    out << "lockdep: BLOCKING CALL UNDER LOCK (" << what << ")\n"
        << "  held:\n"
        << describe_held_locked(g) << "\n"
        << "  blocking call stack:\n"
        << stack_text;
    text = out.str();
  }
  if (fresh) emit(Violation{ViolationKind::kBlockingUnderLock, text});
}

#endif  // RELDEV_LOCKDEP

}  // namespace reldev::lockdep
