// Online Boutique [17]: the 10-microservice application used for the
// end-to-end evaluation (section 4.3). Function compute times and payload
// sizes are synthetic but sized like the real application's RPC surface; the
// three evaluated chains (Home Query, View Cart, Product Query) each perform
// more than 11 function-to-function data exchanges, as the paper states, and
// a fourth chain (Checkout) exercises the deepest call path.
//
// Placement follows the paper's two-node setup: the hotspot functions
// (Frontend, Checkout, Recommendation) on worker node 0, everything else on
// worker node 1. NightCore's single-node configuration collapses both groups
// onto one node.

#ifndef SRC_APPS_BOUTIQUE_H_
#define SRC_APPS_BOUTIQUE_H_

#include <map>
#include <string>
#include <vector>

#include "src/core/types.h"
#include "src/runtime/chain.h"

namespace nadino {

struct BoutiqueFunction {
  FunctionId id = kInvalidFunction;
  std::string name;
  int placement_group = 0;  // 0 = hotspot node, 1 = the other worker node.
};

struct BoutiqueSpec {
  TenantId tenant = 1;
  std::vector<BoutiqueFunction> functions;
  std::vector<ChainSpec> chains;
};

// Function ids (stable, used by tests).
inline constexpr FunctionId kFrontend = 1;
inline constexpr FunctionId kProductCatalog = 2;
inline constexpr FunctionId kCart = 3;
inline constexpr FunctionId kCurrency = 4;
inline constexpr FunctionId kRecommendation = 5;
inline constexpr FunctionId kShipping = 6;
inline constexpr FunctionId kCheckout = 7;
inline constexpr FunctionId kPayment = 8;
inline constexpr FunctionId kEmail = 9;
inline constexpr FunctionId kAd = 10;

inline constexpr ChainId kHomeQueryChain = 1;
inline constexpr ChainId kViewCartChain = 2;
inline constexpr ChainId kProductQueryChain = 3;
inline constexpr ChainId kCheckoutChain = 4;

// Builds the full application spec (functions, chains, placement groups).
BoutiqueSpec BuildBoutiqueSpec(TenantId tenant = 1);

}  // namespace nadino

#endif  // SRC_APPS_BOUTIQUE_H_
