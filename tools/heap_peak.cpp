// Heap peak profiler: an LD_PRELOAD library that tools/heap_peak.sh builds
// and loads into the program it profiles.
//
// It replaces the global operator new and operator delete and keeps, for
// every allocation call stack (its innermost kDepth frames outside this
// library), the bytes and blocks live from that stack.  Whenever the
// process's live bytes pass their peak, the per-stack readings are copied
// into a peak table, so the table always holds the heap as it stood at the
// process's peak.  Only stacks that changed since the previous peak are
// copied, so a new peak costs what changed, not the size of the table.
//
// The peak table is written, as text, to heap_peak.<pid> beside this
// library once the heap has fallen a step (1/64 of the peak, at least
// 64 KiB) below a peak not yet written, and again at normal exit if a
// higher peak is unwritten.  It is written while the process runs, not
// only at exit, because a process that leaves through _exit runs no exit
// handler: bcl_perf's forked reps do.  A process that ends within one step
// of an unwritten peak through _exit keeps the table of its previous
// written peak.  A forked child starts its own table and its own peak from
// what it inherits.
//
// The file: a header line, one line per loaded module
// ("module <index> <path>"), then one line per stack with live bytes at the
// peak: "<bytes> <blocks> <module>:<address> ...", innermost frame first,
// each address a return address in the module's own address space (what
// addr2line takes).  Sizes are the sizes asked of operator new.
#include <dlfcn.h>
#include <execinfo.h>
#include <link.h>
#include <pthread.h>
#include <unistd.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <new>
#include <unordered_map>
#include <vector>

namespace {

constexpr int kDepth = 16;  // frames kept per stack
constexpr int kMaxModules = 64;

struct Stack {
  int depth = 0;
  void* frames[kDepth];
  bool operator==(const Stack& o) const {
    return depth == o.depth && std::equal(frames, frames + depth, o.frames);
  }
};

struct StackHash {
  std::size_t operator()(const Stack& s) const {
    std::size_t h = static_cast<std::size_t>(s.depth);
    for (int i = 0; i < s.depth; ++i) {
      h = h * 0x9e3779b97f4a7c15ull + reinterpret_cast<std::uintptr_t>(
                                          s.frames[i]);
    }
    return h;
  }
};

struct Site {
  std::uint64_t live_bytes = 0, live_blocks = 0;
  std::uint64_t peak_bytes = 0, peak_blocks = 0;
  bool dirty = false;  // changed since the last peak
};

using Sites = std::unordered_map<Stack, Site, StackHash>;

struct Block {
  std::uint64_t size;
  Sites::value_type* site;
};

// The profiler's own tables allocate through the operator new below, which
// leaves them untracked while `busy` is set.  They are made in start() and
// never freed: deletes still arrive after the exit handlers have run.
struct Tables {
  Sites sites;
  std::unordered_map<void*, Block> blocks;
  std::vector<Sites::value_type*> dirty;
  std::uint64_t live = 0, peak = 0, written = 0;
};

std::mutex mu;  // guards `tables`
Tables* tables;
std::uintptr_t self_lo, self_hi;  // this library's code: not a caller
char out_path[4096];
// Inside the profiler: allocations made here go untracked.
__attribute__((tls_model("initial-exec"))) thread_local bool busy;

// The caller's stack, innermost first, without this library's frames.
Stack capture() {
  void* raw[kDepth + 8];
  const int n = backtrace(raw, kDepth + 8);
  int skip = 0;
  while (skip < n && reinterpret_cast<std::uintptr_t>(raw[skip]) >= self_lo &&
         reinterpret_cast<std::uintptr_t>(raw[skip]) < self_hi) {
    ++skip;
  }
  Stack s;
  s.depth = std::min(n - skip, kDepth);
  std::copy(raw + skip, raw + skip + s.depth, s.frames);
  return s;
}

void touch(Sites::value_type& site) {
  if (site.second.dirty) return;
  site.second.dirty = true;
  tables->dirty.push_back(&site);
}

void take_peak() {
  for (Sites::value_type* site : tables->dirty) {
    Site& s = site->second;
    s.peak_bytes = s.live_bytes;
    s.peak_blocks = s.live_blocks;
    s.dirty = false;
  }
  tables->dirty.clear();
  tables->peak = tables->live;
}

// -- the table file -----------------------------------------------------------

struct Module {
  std::uintptr_t bias, lo, hi;  // load bias; [lo, hi) of its segments
  const char* name;
};
Module modules[kMaxModules];
int n_modules;

int add_module(dl_phdr_info* info, std::size_t, void*) {
  if (n_modules == kMaxModules) return 1;
  Module& m = modules[n_modules++];
  m.bias = info->dlpi_addr;
  m.lo = UINTPTR_MAX;
  m.hi = 0;
  for (int i = 0; i < info->dlpi_phnum; ++i) {
    const ElfW(Phdr)& ph = info->dlpi_phdr[i];
    if (ph.p_type != PT_LOAD) continue;
    m.lo = std::min<std::uintptr_t>(m.lo, m.bias + ph.p_vaddr);
    m.hi = std::max<std::uintptr_t>(m.hi, m.bias + ph.p_vaddr + ph.p_memsz);
  }
  m.name = info->dlpi_name;
  return 0;
}

int module_of(std::uintptr_t addr) {
  for (int i = 0; i < n_modules; ++i) {
    if (modules[i].lo <= addr && addr < modules[i].hi) return i;
  }
  return -1;
}

void write_table() {
  tables->written = tables->peak;
  char path[sizeof out_path + 32];
  std::snprintf(path, sizeof path, "%s.%d", out_path,
                static_cast<int>(getpid()));
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) return;
  n_modules = 0;
  dl_iterate_phdr(add_module, nullptr);
  std::uint64_t peak_blocks = 0;
  for (const auto& [stack, s] : tables->sites) peak_blocks += s.peak_blocks;
  std::fprintf(f, "heap_peak pid %d peak_bytes %llu peak_blocks %llu\n",
               static_cast<int>(getpid()),
               static_cast<unsigned long long>(tables->peak),
               static_cast<unsigned long long>(peak_blocks));
  for (int i = 0; i < n_modules; ++i) {
    char exe[4096] = "?";
    const char* name = modules[i].name;
    if (name == nullptr || name[0] == '\0') {  // the main program
      const ssize_t n = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
      if (n > 0) exe[n] = '\0';
      name = exe;
    }
    std::fprintf(f, "module %d %s\n", i, name);
  }
  for (const auto& [stack, s] : tables->sites) {
    if (s.peak_bytes == 0) continue;
    std::fprintf(f, "%llu %llu", static_cast<unsigned long long>(s.peak_bytes),
                 static_cast<unsigned long long>(s.peak_blocks));
    for (int i = 0; i < stack.depth; ++i) {
      const auto addr = reinterpret_cast<std::uintptr_t>(stack.frames[i]);
      const int m = module_of(addr);
      if (m < 0) {
        std::fprintf(f, " ?:%llx", static_cast<unsigned long long>(addr));
      } else {
        std::fprintf(f, " %d:%llx", m,
                     static_cast<unsigned long long>(addr - modules[m].bias));
      }
    }
    std::fputc('\n', f);
  }
  std::fclose(f);
}

// -- hooks --------------------------------------------------------------------

void track(void* p, std::size_t size) {
  if (p == nullptr || busy || tables == nullptr) return;
  busy = true;
  const Stack stack = capture();
  {
    const std::lock_guard<std::mutex> lock{mu};
    Sites::value_type& site = *tables->sites.try_emplace(stack).first;
    tables->blocks.emplace(p, Block{size, &site});
    site.second.live_bytes += size;
    ++site.second.live_blocks;
    touch(site);
    tables->live += size;
    if (tables->live > tables->peak) take_peak();
  }
  busy = false;
}

void untrack(void* p) {
  if (p == nullptr || busy || tables == nullptr) return;
  busy = true;
  {
    const std::lock_guard<std::mutex> lock{mu};
    const auto it = tables->blocks.find(p);
    if (it != tables->blocks.end()) {
      const Block b = it->second;
      tables->blocks.erase(it);
      b.site->second.live_bytes -= b.size;
      --b.site->second.live_blocks;
      touch(*b.site);
      tables->live -= b.size;
      const std::uint64_t step = std::max<std::uint64_t>(tables->peak / 64,
                                                         64 * 1024);
      if (tables->peak > tables->written &&
          tables->live + step <= tables->peak) {
        write_table();
      }
    }
  }
  busy = false;
}

void* allocate(std::size_t size, std::size_t align, bool nothrow) {
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size == 0 ? 1 : size);
  } else if (posix_memalign(&p, align, size == 0 ? align : size) != 0) {
    p = nullptr;
  }
  if (p == nullptr) {
    if (nothrow) return nullptr;
    throw std::bad_alloc{};
  }
  track(p, size);
  return p;
}

void release(void* p) {
  untrack(p);
  std::free(p);
}

// fork() holds `mu`, so the child never inherits it locked mid-update.  A
// forked child's peak is its own, measured from what it inherited.
void before_fork() { mu.lock(); }
void after_fork_in_parent() { mu.unlock(); }
void after_fork_in_child() {
  busy = true;
  for (auto& site : tables->sites) touch(site);
  take_peak();
  tables->written = 0;
  busy = false;
  mu.unlock();
}

__attribute__((constructor)) void start() {
  Dl_info self;
  if (dladdr(reinterpret_cast<void*>(&start), &self) == 0 ||
      self.dli_fname == nullptr) {
    return;
  }
  busy = true;
  std::snprintf(out_path, sizeof out_path, "%s", self.dli_fname);
  char* slash = std::strrchr(out_path, '/');
  char* name = slash == nullptr ? out_path : slash + 1;
  std::snprintf(name, sizeof out_path - (name - out_path), "heap_peak");
  n_modules = 0;
  dl_iterate_phdr(add_module, nullptr);
  const int me = module_of(reinterpret_cast<std::uintptr_t>(&start));
  if (me >= 0) {
    self_lo = modules[me].lo;
    self_hi = modules[me].hi;
  }
  void* warm[2];
  (void)backtrace(warm, 2);  // loads the unwinder before the first hook
  pthread_atfork(before_fork, after_fork_in_parent, after_fork_in_child);
  tables = new Tables;
  busy = false;
}

__attribute__((destructor)) void finish() {
  if (tables == nullptr) return;
  busy = true;  // and stays set: what other destructors free comes later
  const std::lock_guard<std::mutex> lock{mu};
  if (tables->peak > tables->written) write_table();
}

}  // namespace

void* operator new(std::size_t n) { return allocate(n, 0, false); }
void* operator new[](std::size_t n) { return allocate(n, 0, false); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, 0, true);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return allocate(n, 0, true);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a), false);
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return allocate(n, static_cast<std::size_t>(a), false);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a), true);
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return allocate(n, static_cast<std::size_t>(a), true);
}

void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { release(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  release(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  release(p);
}
