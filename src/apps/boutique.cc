#include "src/apps/boutique.h"

namespace nadino {

namespace {

// Leaf behavior helper: compute + response size, no downstream calls.
FunctionBehavior Leaf(SimDuration compute, uint32_t response_bytes) {
  FunctionBehavior b;
  b.compute = compute;
  b.response_payload = response_bytes;
  return b;
}

}  // namespace

BoutiqueSpec BuildBoutiqueSpec(TenantId tenant) {
  BoutiqueSpec spec;
  spec.tenant = tenant;
  spec.functions = {
      {kFrontend, "frontend", 0},
      {kCheckout, "checkout", 0},
      {kRecommendation, "recommendation", 0},
      {kProductCatalog, "productcatalog", 1},
      {kCart, "cart", 1},
      {kCurrency, "currency", 1},
      {kShipping, "shipping", 1},
      {kPayment, "payment", 1},
      {kEmail, "email", 1},
      {kAd, "ad", 1},
  };

  // --- Home Query: frontend fans out to 5 services; recommendation consults
  // the product catalog. 12 function-to-function exchanges.
  {
    ChainSpec chain;
    chain.id = kHomeQueryChain;
    chain.tenant = tenant;
    chain.name = "Home Query";
    chain.entry = kFrontend;
    chain.entry_request_payload = 256;
    FunctionBehavior frontend;
    frontend.compute = 8 * kMicrosecond;
    frontend.calls = {
        {kCurrency, 128},
        {kProductCatalog, 192},
        {kCart, 160},
        {kRecommendation, 256},
        {kAd, 128},
    };
    frontend.response_payload = 1400;  // Rendered home page fragment.
    chain.behaviors[kFrontend] = frontend;
    chain.behaviors[kCurrency] = Leaf(2 * kMicrosecond, 256);
    chain.behaviors[kProductCatalog] = Leaf(5 * kMicrosecond, 1024);
    chain.behaviors[kCart] = Leaf(4 * kMicrosecond, 384);
    FunctionBehavior reco;
    reco.compute = 6 * kMicrosecond;
    reco.calls = {{kProductCatalog, 192}};
    reco.response_payload = 512;
    chain.behaviors[kRecommendation] = reco;
    chain.behaviors[kAd] = Leaf(3 * kMicrosecond, 320);
    spec.chains.push_back(chain);
  }

  // --- View Cart: cart contents, per-item catalog lookups, currency,
  // shipping estimate, recommendations. 14 exchanges (the heaviest of the
  // three evaluated chains, as in the paper's Table 2).
  {
    ChainSpec chain;
    chain.id = kViewCartChain;
    chain.tenant = tenant;
    chain.name = "View Cart";
    chain.entry = kFrontend;
    chain.entry_request_payload = 224;
    FunctionBehavior frontend;
    frontend.compute = 8 * kMicrosecond;
    frontend.calls = {
        {kCart, 160},
        {kProductCatalog, 224},  // Cart item details...
        {kProductCatalog, 224},  // ...looked up per item (two in the cart).
        {kCurrency, 128},
        {kShipping, 288},
        {kRecommendation, 256},
    };
    frontend.response_payload = 1200;
    chain.behaviors[kFrontend] = frontend;
    chain.behaviors[kCart] = Leaf(5 * kMicrosecond, 512);
    chain.behaviors[kProductCatalog] = Leaf(5 * kMicrosecond, 896);
    chain.behaviors[kCurrency] = Leaf(2 * kMicrosecond, 256);
    chain.behaviors[kShipping] = Leaf(4 * kMicrosecond, 320);
    FunctionBehavior reco;
    reco.compute = 6 * kMicrosecond;
    reco.calls = {{kProductCatalog, 192}};
    reco.response_payload = 512;
    chain.behaviors[kRecommendation] = reco;
    spec.chains.push_back(chain);
  }

  // --- Product Query: product details page. 12 exchanges.
  {
    ChainSpec chain;
    chain.id = kProductQueryChain;
    chain.tenant = tenant;
    chain.name = "Product Query";
    chain.entry = kFrontend;
    chain.entry_request_payload = 200;
    FunctionBehavior frontend;
    frontend.compute = 8 * kMicrosecond;
    frontend.calls = {
        {kProductCatalog, 192},
        {kCurrency, 128},
        {kCart, 160},
        {kRecommendation, 256},
        {kAd, 128},
    };
    frontend.response_payload = 1300;
    chain.behaviors[kFrontend] = frontend;
    chain.behaviors[kProductCatalog] = Leaf(5 * kMicrosecond, 1100);
    chain.behaviors[kCurrency] = Leaf(2 * kMicrosecond, 256);
    chain.behaviors[kCart] = Leaf(4 * kMicrosecond, 384);
    FunctionBehavior reco;
    reco.compute = 6 * kMicrosecond;
    reco.calls = {{kProductCatalog, 192}};
    reco.response_payload = 512;
    chain.behaviors[kRecommendation] = reco;
    chain.behaviors[kAd] = Leaf(3 * kMicrosecond, 320);
    spec.chains.push_back(chain);
  }

  // --- Checkout: the deepest path (14 exchanges), exercised by the examples
  // and tests (not part of the paper's three evaluated chains).
  {
    ChainSpec chain;
    chain.id = kCheckoutChain;
    chain.tenant = tenant;
    chain.name = "Checkout";
    chain.entry = kFrontend;
    chain.entry_request_payload = 512;
    FunctionBehavior frontend;
    frontend.compute = 7 * kMicrosecond;
    frontend.calls = {{kCheckout, 480}};
    frontend.response_payload = 900;
    chain.behaviors[kFrontend] = frontend;
    FunctionBehavior checkout;
    checkout.compute = 9 * kMicrosecond;
    checkout.calls = {
        {kCart, 160}, {kProductCatalog, 192}, {kShipping, 288},
        {kCurrency, 128}, {kPayment, 420}, {kEmail, 380},
    };
    checkout.response_payload = 700;
    chain.behaviors[kCheckout] = checkout;
    chain.behaviors[kCart] = Leaf(5 * kMicrosecond, 512);
    chain.behaviors[kProductCatalog] = Leaf(5 * kMicrosecond, 896);
    chain.behaviors[kShipping] = Leaf(4 * kMicrosecond, 320);
    chain.behaviors[kCurrency] = Leaf(2 * kMicrosecond, 256);
    chain.behaviors[kPayment] = Leaf(6 * kMicrosecond, 280);
    chain.behaviors[kEmail] = Leaf(5 * kMicrosecond, 200);
    spec.chains.push_back(chain);
  }

  return spec;
}

}  // namespace nadino
