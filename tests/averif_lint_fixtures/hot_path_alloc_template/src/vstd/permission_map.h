// A class template whose member function allocates, declared with a
// requires-clause between its signature and its body.

#ifndef FIXTURE_PERMISSION_MAP_H_
#define FIXTURE_PERMISSION_MAP_H_

#include <concepts>
#include <map>

namespace atmo {

template <typename T>
class PermissionMap {
 public:
  PermissionMap CloneForVerification() const
    requires std::copy_constructible<T>
  {
    PermissionMap out;
    for (const auto& [ptr, value] : rep_) {
      out.rep_.emplace_hint(out.rep_.end(), ptr, value);  // seeded: heap allocation
    }
    return out;
  }

 private:
  std::map<int, T> rep_;
};

}  // namespace atmo

#endif  // FIXTURE_PERMISSION_MAP_H_
