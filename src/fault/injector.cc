#include "src/fault/injector.h"

#include <utility>

namespace tas {

FaultSchedule& FaultSchedule::At(TimeNs t, std::string description,
                                 std::function<void()> apply) {
  FaultEvent e;
  e.at = t;
  e.description = std::move(description);
  e.apply = std::move(apply);
  events_.push_back(std::move(e));
  return *this;
}

FaultSchedule& FaultSchedule::LinkDownAt(TimeNs t, Link* link) {
  return At(t, "link down", [link] { link->SetDown(true); });
}

FaultSchedule& FaultSchedule::LinkUpAt(TimeNs t, Link* link) {
  return At(t, "link up", [link] { link->SetDown(false); });
}

FaultSchedule& FaultSchedule::LinkFlap(TimeNs t, TimeNs duration, Link* link) {
  LinkDownAt(t, link);
  return LinkUpAt(t + duration, link);
}

FaultSchedule& FaultSchedule::ImpairmentWindow(TimeNs from, TimeNs to, Link* link, int side,
                                               const ImpairmentSpec& spec) {
  TAS_CHECK(to >= from);
  // The handle is produced when the window opens, so the open/close thunks
  // share it through one cell.
  auto handle = std::make_shared<Impairment*>(nullptr);
  const std::string name = ImpairmentKindName(spec.kind);
  At(from, name + " window opens",
     [link, side, spec, handle] { *handle = link->AddImpairment(side, spec); });
  return At(to, name + " window closes", [link, side, handle] {
    if (*handle != nullptr) {
      link->RemoveImpairment(side, *handle);
      *handle = nullptr;
    }
  });
}

FaultSchedule& FaultSchedule::ImpairmentWindowBoth(TimeNs from, TimeNs to, Link* link,
                                                   const ImpairmentSpec& spec) {
  ImpairmentWindow(from, to, link, 0, spec);
  return ImpairmentWindow(from, to, link, 1, spec);
}

void FaultInjector::Install(FaultSchedule schedule) {
  for (const FaultEvent& event : schedule.events()) {
    auto apply = std::make_shared<FaultEvent>(event);
    ++pending_;
    sim_->AtClamped(apply->at, [this, apply] {
      log_.push_back(LogEntry{sim_->Now(), apply->description});
      apply->apply();
      --pending_;
    });
  }
}

}  // namespace tas
