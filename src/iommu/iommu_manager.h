// IOMMU management (§3, §5 item 8).
//
// Devices DMA into physical memory through an I/O MMU. Each protection
// domain owns a second-level translation table (structurally identical to a
// CPU page table, so the PageTable subsystem is reused — as Intel VT-d
// second-level tables reuse the paging format). Devices attach to at most
// one domain; device accesses outside the domain's mappings fault instead of
// reaching memory, which is what lets Atmosphere distrust devices (§5).
//
// Domains are owned by containers and charged against their quota; an IOMMU
// identifier can be delegated over IPC (IommuGrant). Each fact has one
// store: `domains_` is the only domain -> table record, and a domain's owner
// is its table's owner, the tag every table node is allocated under.

#ifndef ATMO_SRC_IOMMU_IOMMU_MANAGER_H_
#define ATMO_SRC_IOMMU_IOMMU_MANAGER_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>

#include "src/hw/mmu.h"
#include "src/hw/phys_mem.h"
#include "src/pagetable/page_table.h"
#include "src/pmem/page_allocator.h"
#include "src/vstd/dirty_set.h"
#include "src/vstd/spec_set.h"
#include "src/vstd/types.h"

namespace atmo {

using DeviceId = std::uint32_t;
using IommuDomainId = std::uint64_t;

inline constexpr IommuDomainId kNoIommuDomain = 0;

class IommuManager {
 public:
  explicit IommuManager(PhysMem* mem) : mem_(mem), mmu_(mem) {}

  IommuManager(IommuManager&&) noexcept = default;
  IommuManager& operator=(IommuManager&&) noexcept = default;

  // Creates a protection domain owned by `ctnr`. Returns kNoIommuDomain on
  // OOM. The domain's root table page is charged to the container by the
  // caller (the kernel facade owns quota accounting).
  IommuDomainId CreateDomain(PageAllocator* alloc, CtnrPtr ctnr);

  // Destroys an empty domain (no attached devices); unmaps everything and
  // frees the table pages.
  void DestroyDomain(PageAllocator* alloc, IommuDomainId domain);

  bool DomainExists(IommuDomainId domain) const { return domains_.count(domain) != 0; }
  // A domain's owner is its table's owner: the container charged for the
  // table's nodes, including those a later MapDma allocates.
  CtnrPtr DomainOwner(IommuDomainId domain) const;
  // Re-attributes a domain (container kill harvesting / IPC delegation).
  void SetDomainOwner(IommuDomainId domain, CtnrPtr ctnr);

  // Device attachment: a device translates through exactly one domain.
  bool AttachDevice(IommuDomainId domain, DeviceId device);
  void DetachDevice(DeviceId device);
  IommuDomainId DomainOf(DeviceId device) const;

  // DMA mappings (device-visible IOVA -> physical).
  MapError MapDma(PageAllocator* alloc, IommuDomainId domain, VAddr iova, PAddr pa,
                  PageSize size, MapEntryPerm perm);
  std::optional<MapEntry> UnmapDma(IommuDomainId domain, VAddr iova);

  // Hardware-path translation used by device models: resolves `iova` for
  // `device`, honouring write protection. nullopt = DMA fault (blocked).
  std::optional<PAddr> Translate(DeviceId device, VAddr iova, bool write) const;

  // Number of table pages the domain consumes (for quota accounting).
  std::uint64_t DomainPageCount(IommuDomainId domain) const;
  // Pages used by all domain tables (page_closure of this subsystem).
  SpecSet<PagePtr> PageClosure() const;
  // Domains owned by a given container.
  SpecSet<IommuDomainId> DomainsOwnedBy(CtnrPtr ctnr) const;

  // Structural well-formedness: domain tables are wf, device attachments
  // reference live domains.
  bool Wf() const;

  // Drains the set of domains whose abstract view (owner, mappings or
  // attached devices) may have changed since the last drain.
  void DrainDirtyInto(std::set<IommuDomainId>* out, bool* overflow) {
    dirty_.DrainInto(out, overflow);
  }

  const std::map<IommuDomainId, PageTable>& domains() const { return domains_; }
  const std::map<DeviceId, IommuDomainId>& device_attachments() const {
    return device_domains_;
  }
  // Pages of one domain's translation table (for ownership transfer).
  SpecSet<PagePtr> DomainPageClosure(IommuDomainId domain) const;
  // Dry-run / cost hooks mirroring PageTable for quota pre-charging.
  MapError CanMapDma(IommuDomainId domain, VAddr iova, PageSize size) const;
  std::uint64_t FreshNodesForDma(IommuDomainId domain, VAddr iova, PageSize size) const;

  IommuManager CloneForVerification(PhysMem* mem) const;
  // Pooled clone: overwrite `out` in place, reusing its domain map nodes
  // and per-table storage (DESIGN.md §14).
  void CloneForVerificationInto(IommuManager* out, PhysMem* mem) const;

 private:
  // Domain lookup used by every DMA syscall; nullptr when absent.
  PageTable* FindDomain(IommuDomainId domain);
  const PageTable* FindDomain(IommuDomainId domain) const;

  PhysMem* mem_;
  Mmu mmu_;
  IommuDomainId next_domain_ = 1;
  // One translation table per domain; the table also records the owner.
  std::map<IommuDomainId, PageTable> domains_;
  std::map<DeviceId, IommuDomainId> device_domains_;
  DirtyLog dirty_;
};

}  // namespace atmo

#endif  // ATMO_SRC_IOMMU_IOMMU_MANAGER_H_
