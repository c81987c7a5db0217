#include "src/iommu/iommu_manager.h"

#include <utility>
#include <vector>

#include "src/vstd/check.h"

namespace atmo {

PageTable* IommuManager::FindDomain(IommuDomainId domain) {
  auto it = domains_.find(domain);
  return it == domains_.end() ? nullptr : &it->second;
}

const PageTable* IommuManager::FindDomain(IommuDomainId domain) const {
  auto it = domains_.find(domain);
  return it == domains_.end() ? nullptr : &it->second;
}

IommuDomainId IommuManager::CreateDomain(PageAllocator* alloc, CtnrPtr ctnr) {
  std::optional<PageTable> table = PageTable::New(mem_, alloc, ctnr);
  if (!table.has_value()) {
    return kNoIommuDomain;
  }
  IommuDomainId id = next_domain_++;
  // averif-lint: allow(hot-path-alloc) — IOMMU domain creation is a cold control-plane op
  domains_.emplace(id, std::move(*table));
  dirty_.Mark(id);
  return id;
}

void IommuManager::DestroyDomain(PageAllocator* alloc, IommuDomainId domain) {
  PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "DestroyDomain of unknown domain");
  for (const auto& [device, dom] : device_domains_) {
    ATMO_CHECK(dom != domain, "DestroyDomain with attached devices");
  }
  // Unmap all DMA windows, then release the tables.
  std::vector<VAddr> iovas;
  for (const auto& [iova, entry] : table->AddressSpace()) {
    iovas.push_back(iova);
  }
  for (VAddr iova : iovas) {
    table->Unmap(iova);
  }
  table->Destroy(alloc);
  domains_.erase(domain);
  dirty_.Mark(domain);
}

CtnrPtr IommuManager::DomainOwner(IommuDomainId domain) const {
  const PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "DomainOwner of unknown domain");
  return table->owner();
}

void IommuManager::SetDomainOwner(IommuDomainId domain, CtnrPtr ctnr) {
  PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "SetDomainOwner of unknown domain");
  // The table's owner is the domain's only owner record. EnsureChild tags
  // every node a later MapDma allocates with it, so it must name the
  // container the kernel charges for those nodes. The caller re-tags the
  // existing node pages and moves their charge.
  table->SetOwner(ctnr);
  dirty_.Mark(domain);
}

bool IommuManager::AttachDevice(IommuDomainId domain, DeviceId device) {
  if (FindDomain(domain) == nullptr) {
    return false;
  }
  if (device_domains_.count(device) != 0) {
    return false;  // already attached elsewhere
  }
  device_domains_[device] = domain;
  dirty_.Mark(domain);
  return true;
}

void IommuManager::DetachDevice(DeviceId device) {
  auto it = device_domains_.find(device);
  ATMO_CHECK(it != device_domains_.end(), "DetachDevice of unattached device");
  dirty_.Mark(it->second);
  device_domains_.erase(it);
}

IommuDomainId IommuManager::DomainOf(DeviceId device) const {
  auto it = device_domains_.find(device);
  return it == device_domains_.end() ? kNoIommuDomain : it->second;
}

MapError IommuManager::MapDma(PageAllocator* alloc, IommuDomainId domain, VAddr iova, PAddr pa,
                              PageSize size, MapEntryPerm perm) {
  PageTable* table = FindDomain(domain);
  if (table == nullptr) {
    return MapError::kNotMapped;
  }
  dirty_.Mark(domain);
  return table->Map(alloc, iova, pa, size, perm);
}

std::optional<MapEntry> IommuManager::UnmapDma(IommuDomainId domain, VAddr iova) {
  PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "UnmapDma on unknown domain");
  dirty_.Mark(domain);
  return table->Unmap(iova);
}

std::optional<PAddr> IommuManager::Translate(DeviceId device, VAddr iova, bool write) const {
  auto dev = device_domains_.find(device);
  if (dev == device_domains_.end()) {
    return std::nullopt;  // unattached devices are blocked entirely
  }
  const PageTable* dom = FindDomain(dev->second);
  ATMO_CHECK(dom != nullptr, "device attached to dead domain");
  // Hardware path: walk the real table bits.
  std::optional<WalkResult> walk = mmu_.Walk(dom->cr3(), iova);
  if (!walk.has_value()) {
    return std::nullopt;
  }
  if (write && !walk->perm.writable) {
    return std::nullopt;
  }
  return walk->paddr;
}

std::uint64_t IommuManager::DomainPageCount(IommuDomainId domain) const {
  const PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "DomainPageCount of unknown domain");
  return table->PageClosure().size();
}

SpecSet<PagePtr> IommuManager::PageClosure() const {
  SpecSet<PagePtr> out;
  for (const auto& [id, table] : domains_) {
    out = out.Union(table.PageClosure());
  }
  return out;
}

SpecSet<IommuDomainId> IommuManager::DomainsOwnedBy(CtnrPtr ctnr) const {
  SpecSet<IommuDomainId> out;
  for (const auto& [id, table] : domains_) {
    if (table.owner() == ctnr) {
      out.add(id);
    }
  }
  return out;
}

SpecSet<PagePtr> IommuManager::DomainPageClosure(IommuDomainId domain) const {
  const PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "DomainPageClosure of unknown domain");
  return table->PageClosure();
}

MapError IommuManager::CanMapDma(IommuDomainId domain, VAddr iova, PageSize size) const {
  const PageTable* table = FindDomain(domain);
  if (table == nullptr) {
    return MapError::kNotMapped;
  }
  return table->CanMap(iova, size);
}

std::uint64_t IommuManager::FreshNodesForDma(IommuDomainId domain, VAddr iova,
                                             PageSize size) const {
  const PageTable* table = FindDomain(domain);
  ATMO_CHECK(table != nullptr, "FreshNodesForDma of unknown domain");
  return table->FreshNodesFor(iova, size, nullptr);
}

bool IommuManager::Wf() const {
  for (const auto& [id, table] : domains_) {
    if (!table.StructureWf(*mem_)) {
      return false;
    }
  }
  for (const auto& [device, domain] : device_domains_) {
    if (domains_.find(domain) == domains_.end()) {
      return false;
    }
  }
  return true;
}

IommuManager IommuManager::CloneForVerification(PhysMem* mem) const {
  IommuManager out(mem);
  out.next_domain_ = next_domain_;
  for (const auto& [id, table] : domains_) {
    // averif-lint: allow(hot-path-alloc) — no ring drain runs a fresh clone. The
    // finding's last edge is a may-call: VmManager::CloneForVerificationInto's
    // `perm.CloneForVerification()` copies a FramePerm, a receiver the call graph
    // cannot type, so it links every CloneForVerification, this one included.
    out.domains_.emplace(id, table.CloneForVerification(mem));
  }
  out.device_domains_ = device_domains_;
  return out;
}

void IommuManager::CloneForVerificationInto(IommuManager* out, PhysMem* mem) const {
  out->mem_ = mem;
  out->mmu_ = Mmu(mem);
  out->next_domain_ = next_domain_;
  // Sorted merge walk: per-domain pooled table clones into reused nodes.
  auto dit = out->domains_.begin();
  for (const auto& [id, table] : domains_) {
    while (dit != out->domains_.end() && dit->first < id) {
      dit = out->domains_.erase(dit);
    }
    if (dit != out->domains_.end() && dit->first == id) {
      table.CloneForVerificationInto(&dit->second, mem);
      ++dit;
    } else {
      // averif-lint: allow(hot-path-alloc) — emplace_hint refills recycled domain nodes; allocation only on growth past the pooled high-water mark
      dit = out->domains_.emplace_hint(dit, id, PageTable());
      table.CloneForVerificationInto(&dit->second, mem);
      ++dit;
    }
  }
  out->domains_.erase(dit, out->domains_.end());
  out->device_domains_ = device_domains_;
  out->dirty_.Reset();  // clones start with an empty mutation log
}

}  // namespace atmo
