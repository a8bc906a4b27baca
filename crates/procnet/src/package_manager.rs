//! UID to package-name resolution, mirroring Android's `PackageManager`.
//!
//! MopEye resolves the UID found in `/proc/net/*` to a human-readable app
//! name through `PackageManager` APIs and caches the result, since UID to
//! name is a stable mapping for the lifetime of an install (§2.2).

use std::collections::HashMap;

/// The simulated package manager: the set of installed apps and their UIDs.
#[derive(Debug, Default, Clone)]
pub struct PackageManager {
    by_uid: HashMap<u32, String>,
    lookups: u64,
    cache: HashMap<u32, String>,
    cache_hits: u64,
}

impl PackageManager {
    /// Creates an empty package manager.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a package manager pre-populated with a set of well-known apps,
    /// starting at UID 10100 (Android app UIDs start at 10000).
    #[cfg(test)]
    pub(crate) fn with_apps(names: &[&str]) -> Self {
        let mut pm = Self::new();
        for (i, name) in names.iter().enumerate() {
            pm.install(10_100 + i as u32, name);
        }
        pm
    }

    /// Resets the manager to its just-constructed state, keeping the table
    /// allocations. Installed packages are cleared too: the engine installs
    /// them per run from the flow specs, so they are run state, not config.
    pub fn reset(&mut self) {
        self.by_uid.clear();
        self.lookups = 0;
        self.cache.clear();
        self.cache_hits = 0;
    }

    /// Installs a package under `uid`.
    pub fn install(&mut self, uid: u32, package: &str) {
        self.by_uid.insert(uid, package.to_string());
        // Installation invalidates any stale cached name for this UID.
        self.cache.remove(&uid);
    }

    /// Uninstalls whatever package owns `uid`.
    #[cfg(test)]
    pub(crate) fn uninstall(&mut self, uid: u32) -> Option<String> {
        self.cache.remove(&uid);
        self.by_uid.remove(&uid)
    }

    /// Resolves a UID to its package name through the (uncached) framework
    /// call. The caller is responsible for charging the lookup cost.
    pub(crate) fn name_for_uid(&mut self, uid: u32) -> Option<String> {
        self.lookups += 1;
        self.by_uid.get(&uid).cloned()
    }

    /// Resolves a UID with the per-process cache MopEye keeps so repeated
    /// packets from the same app do not pay the framework call again.
    pub fn name_for_uid_cached(&mut self, uid: u32) -> Option<String> {
        if let Some(name) = self.cache.get(&uid) {
            self.cache_hits += 1;
            return Some(name.clone());
        }
        let name = self.name_for_uid(uid)?;
        self.cache.insert(uid, name.clone());
        Some(name)
    }

    /// Number of uncached framework lookups performed.
    #[cfg(test)]
    pub(crate) fn lookup_count(&self) -> u64 {
        self.lookups
    }

    /// Number of cache hits.
    #[cfg(test)]
    pub(crate) fn cache_hit_count(&self) -> u64 {
        self.cache_hits
    }

    /// Number of installed packages.
    #[cfg(test)]
    pub(crate) fn installed_count(&self) -> usize {
        self.by_uid.len()
    }

    /// All installed (uid, package) pairs, sorted by UID.
    #[cfg(test)]
    pub(crate) fn installed(&self) -> Vec<(u32, String)> {
        let mut v: Vec<_> = self.by_uid.iter().map(|(u, n)| (*u, n.clone())).collect();
        v.sort_by_key(|(u, _)| *u);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn install_and_resolve() {
        let mut pm = PackageManager::new();
        pm.install(10123, "com.whatsapp");
        pm.install(10200, "com.facebook.katana");
        assert_eq!(pm.name_for_uid(10123), Some("com.whatsapp".into()));
        assert_eq!(pm.name_for_uid(99999), None);
        assert_eq!(pm.name_for_uid(10200), Some("com.facebook.katana".into()));
        assert_eq!(pm.installed_count(), 2);
        assert_eq!(pm.lookup_count(), 3);
    }

    #[test]
    fn cached_lookup_avoids_framework_calls() {
        let mut pm = PackageManager::new();
        pm.install(10123, "com.whatsapp");
        assert_eq!(pm.name_for_uid_cached(10123), Some("com.whatsapp".into()));
        assert_eq!(pm.name_for_uid_cached(10123), Some("com.whatsapp".into()));
        assert_eq!(pm.lookup_count(), 1);
        assert_eq!(pm.cache_hit_count(), 1);
    }

    #[test]
    fn reinstall_invalidates_cache() {
        let mut pm = PackageManager::new();
        pm.install(10123, "com.old");
        assert_eq!(pm.name_for_uid_cached(10123), Some("com.old".into()));
        pm.install(10123, "com.new");
        assert_eq!(pm.name_for_uid_cached(10123), Some("com.new".into()));
    }

    #[test]
    fn uninstall_removes_package() {
        let mut pm = PackageManager::new();
        pm.install(10123, "com.gone");
        assert_eq!(pm.uninstall(10123), Some("com.gone".into()));
        assert_eq!(pm.uninstall(10123), None);
        assert_eq!(pm.name_for_uid_cached(10123), None);
    }

    #[test]
    fn with_apps_assigns_sequential_uids() {
        let pm = PackageManager::with_apps(&["com.a", "com.b", "com.c"]);
        assert_eq!(pm.installed_count(), 3);
        let installed = pm.installed();
        assert_eq!(installed[0], (10_100, "com.a".into()));
        assert_eq!(installed[2], (10_102, "com.c".into()));
    }
}
