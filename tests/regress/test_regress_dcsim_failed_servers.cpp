// Directed regression: scan_reference ignored failed servers. A failed
// server keeps its (fully free) ServerState in Site::server(i) but leaves
// the bucket index, so after fail_servers the linear-scan oracle offered
// servers the indexed best-fit correctly refused.
// Minimized by: vbatt_fuzz --suite=dcsim --cases=25 --seed=1
#include <gtest/gtest.h>

#include "vbatt/dcsim/scan_reference.h"
#include "vbatt/dcsim/site.h"
#include "vbatt/testkit/property.h"
#include "vbatt/testkit/spec.h"
#include "vbatt/testkit/suites.h"

namespace vbatt::testkit {
namespace {

constexpr const char* kSpec =
    "seed=4951804853814196349;servers=1;ops=4;prop=dcsim.placement_diff";

TEST(DcsimFailedServersRegress, ReplaySpecHolds) {
  const CaseResult result = replay(all_properties(), Spec::parse(kSpec));
  EXPECT_TRUE(result.ok) << result.message;
}

TEST(DcsimFailedServersRegress, ScanSkipsFailedServers) {
  dcsim::SiteConfig config;
  config.n_servers = 2;
  config.server = {8, 32.0};
  dcsim::Site site{config};
  (void)site.fail_servers(1);  // server 0 offline, server 1 healthy

  const workload::VmShape probe{4, 16.0};
  dcsim::BestFitPolicy best;
  EXPECT_EQ(dcsim::scan_reference::best_fit(site, probe), 1);
  EXPECT_EQ(best.choose(site, probe), 1);

  // With every server failed, both sides must refuse.
  (void)site.fail_servers(1);
  EXPECT_EQ(dcsim::scan_reference::best_fit(site, probe), std::nullopt);
  EXPECT_EQ(best.choose(site, probe), std::nullopt);
}

}  // namespace
}  // namespace vbatt::testkit
