package fault

import "sort"

// SiteNames lists the sites that have been rolled at least once, sorted.
func (in *Injector) SiteNames() []string {
	if in == nil {
		return nil
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	names := make([]string, 0, len(in.sites))
	for n := range in.sites {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
