// Guest address spaces. Every guest page carries an MPK protection key and a
// writable bit; every access is checked against the machine's current PKRU
// and (when the executing code is instrumented) against ASAN-lite shadow
// memory. Pages are demand-zero: a page that was never written has no frame
// and reads as one shared zero page; its first write takes a zeroed frame
// from a process-wide free list. Each Map creates one reference-counted
// region of frame slots, which MapAlias maps into further address spaces at
// the same guest address — the mechanism behind the VM-backend shared heap.
#ifndef FLEXOS_VMEM_ADDRESS_SPACE_H_
#define FLEXOS_VMEM_ADDRESS_SPACE_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hw/machine.h"
#include "hw/trap.h"
#include "support/status.h"

namespace flexos {

using Gaddr = uint64_t;

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kShadowGranule = 8;
inline constexpr uint64_t kShadowPerPage = kPageSize / kShadowGranule;

// Shadow byte encodings (subset of ASAN's).
inline constexpr uint8_t kShadowAddressable = 0x00;
inline constexpr uint8_t kShadowHeapRedzone = 0xfa;
inline constexpr uint8_t kShadowFreed = 0xfd;
inline constexpr uint8_t kShadowStackGuard = 0xfe;

// One frame: the bytes and shadow of a written guest page.
struct PageData {
  std::array<uint8_t, kPageSize> bytes{};
  std::array<uint8_t, kShadowPerPage> shadow{};
};

// Zeroed frames waiting on the process-wide free list. A region's frames
// return to it, re-zeroed, when the region's last mapping goes.
size_t RecycledFrameCount();

// The backing of one Map call: a frame slot per page, empty until that
// page's first write (defined in address_space.cc).
struct PageRegion;

struct PageEntry {
  PageRegion* region = nullptr;  // Null when unmapped.
  uint32_t slot = 0;             // This page's frame slot in `region`.
  Pkey key = 0;
  bool writable = true;
  bool guard = false;  // Guard pages trap on any access (stack overflow).

  bool mapped() const { return region != nullptr; }
};

class AddressSpace {
 public:
  // `size_bytes` must be page-aligned. `name` is used in fault diagnostics.
  AddressSpace(Machine& machine, std::string name, uint64_t size_bytes);
  ~AddressSpace();

  AddressSpace(const AddressSpace&) = delete;
  AddressSpace& operator=(const AddressSpace&) = delete;

  Machine& machine() { return machine_; }
  const std::string& name() const { return name_; }
  uint64_t size_bytes() const { return pages_.size() * kPageSize; }

  // --- Mapping -----------------------------------------------------------

  // Maps fresh zeroed pages at [addr, addr+size) with the given key.
  Status Map(Gaddr addr, uint64_t size, Pkey key, bool writable = true);

  // Maps the same physical pages that `source` has at [src_addr, ...) into
  // this space at [dst_addr, ...). Used for VM shared regions; the paper
  // maps the shared area at an identical address in all compartments, and
  // callers here should do the same so guest pointers stay valid.
  Status MapAlias(Gaddr dst_addr, AddressSpace& source, Gaddr src_addr,
                  uint64_t size);

  // Marks [addr, addr+size) as guard pages (any access traps).
  Status MapGuard(Gaddr addr, uint64_t size);

  Status Unmap(Gaddr addr, uint64_t size);

  // Retags mapped pages with a new protection key.
  Status SetKey(Gaddr addr, uint64_t size, Pkey key);

  // Returns the key of the page containing addr (page must be mapped).
  Result<Pkey> KeyOf(Gaddr addr) const;

  bool IsMapped(Gaddr addr) const;

  // --- Checked access (charges cycles, enforces PKRU + shadow) -----------

  void Read(Gaddr addr, void* dst, uint64_t size);
  void Write(Gaddr addr, const void* src, uint64_t size);
  void Fill(Gaddr addr, uint8_t value, uint64_t size);

  // Guest-to-guest copy within this space.
  void Copy(Gaddr dst, Gaddr src, uint64_t size);

  template <typename T>
  T ReadT(Gaddr addr) {
    static_assert(std::is_trivially_copyable_v<T>);
    T value;
    Read(addr, &value, sizeof(T));
    return value;
  }

  template <typename T>
  void WriteT(Gaddr addr, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    Write(addr, &value, sizeof(T));
  }

  // --- ASAN-lite shadow --------------------------------------------------

  // Marks [addr, addr+size) as poisoned with `code`. Byte-granular: the
  // granule containing a partial head/tail is handled per ASAN's partial
  // encoding where possible and conservatively otherwise.
  void Poison(Gaddr addr, uint64_t size, uint8_t code);

  // Marks [addr, addr+size) addressable.
  void Unpoison(Gaddr addr, uint64_t size);

  // True if any byte of [addr, addr+size) is poisoned.
  bool IsPoisoned(Gaddr addr, uint64_t size);

  // --- Unchecked access (host-side test/bench plumbing only) -------------

  // Reads without PKRU/shadow checks or cycle charges. For assertions in
  // tests and loaders; modeled guest code must use Read/Write.
  void ReadUnchecked(Gaddr addr, void* dst, uint64_t size);
  void WriteUnchecked(Gaddr addr, const void* src, uint64_t size);

 private:
  enum class CheckMode { kChecked, kUnchecked };

  // Resolves one page and enforces mapping/PKRU/guard checks.
  const PageEntry& ResolvePage(Gaddr addr, AccessKind access, CheckMode mode);

  // Enforces shadow validity for an in-page span, if instrumentation is on.
  void CheckShadow(const PageData& page, Gaddr addr, uint64_t in_page_off,
                   uint64_t span, AccessKind access);

  // Walks [addr, addr+size) page by page invoking fn(page, in_page_off, n).
  template <typename Fn>
  void ForEachChunk(Gaddr addr, uint64_t size, AccessKind access,
                    CheckMode mode, Fn&& fn);

  [[noreturn]] void FaultUnmapped(Gaddr addr, AccessKind access);

  Machine& machine_;
  std::string name_;
  std::vector<PageEntry> pages_;
};

}  // namespace flexos

#endif  // FLEXOS_VMEM_ADDRESS_SPACE_H_
