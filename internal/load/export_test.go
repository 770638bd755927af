package load

// ExemplarsPerWindow exposes the per-window exemplar cap to the external
// tests.
const ExemplarsPerWindow = exemplarsPerWindow
