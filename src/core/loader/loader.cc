#include "core/loader/loader.hh"

#include "core/loader/builtin_loaders.hh"
#include "util/logging.hh"

namespace vhive::core::loader {

LoaderRegistry::LoaderRegistry()
{
    registerLoader(ColdStartMode::BootFromScratch,
                   std::make_unique<BootLoader>());
    registerLoader(ColdStartMode::VanillaSnapshot,
                   std::make_unique<VanillaSnapshotLoader>());
    registerLoader(ColdStartMode::ParallelPageFaults,
                   std::make_unique<ParallelPageFaultsLoader>());
    registerLoader(ColdStartMode::WsFileCached,
                   std::make_unique<WsFileCachedLoader>());
    registerLoader(ColdStartMode::Reap, std::make_unique<ReapLoader>());
    registerTieredLoaders(*this);
    _recordLoader = std::make_unique<RecordLoader>();
}

SnapshotLoader &
LoaderRegistry::loaderFor(ColdStartMode mode) const
{
    SnapshotLoader *loader = find(mode);
    if (loader == nullptr)
        fatal("no SnapshotLoader registered for mode %d",
              static_cast<int>(mode));
    return *loader;
}

SnapshotLoader *
LoaderRegistry::find(ColdStartMode mode) const
{
    auto it = loaders.find(mode);
    return it == loaders.end() ? nullptr : it->second.get();
}

void
LoaderRegistry::registerLoader(ColdStartMode mode,
                               std::unique_ptr<SnapshotLoader> loader)
{
    VHIVE_ASSERT(loader != nullptr);
    loaders[mode] = std::move(loader);
}

std::vector<ColdStartMode>
LoaderRegistry::modes() const
{
    std::vector<ColdStartMode> out;
    out.reserve(loaders.size());
    for (const auto &entry : loaders)
        out.push_back(entry.first);
    return out;
}

} // namespace vhive::core::loader
