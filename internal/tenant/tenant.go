// Package tenant is the multi-tenancy subsystem behind cmd/serve: a
// registry of named tenants with bearer-token authentication, per-tenant
// quotas (concurrent jobs, total graph nodes, checkpoint bytes on disk),
// and a weighted-fair scheduler that bounds how many run slots any one
// tenant can hold while round-robining queued work across tenants.
//
// The package is deliberately mechanism-only: it counts, checks and
// schedules, but performs no IO of its own beyond reading a config file.
// The serve layer decides where enforcement points live (admission versus
// steady state) and what usage numbers to feed in.
package tenant

import (
	"bytes"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"regexp"
	"sort"
	"sync"
)

// Default is the built-in tenant every un-namespaced request maps to. It
// always exists, starts open (no token) and unlimited, and may be given a
// token and quotas like any other tenant.
const Default = "default"

// nameRE constrains tenant names to path-safe slugs: they become directory
// names under the serve data dir and path segments in the HTTP API.
var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9._-]{0,63}$`)

// ValidName reports whether a tenant name is acceptable: a short lowercase
// slug that cannot escape the data dir or collide with the store's own
// "shard-NN" directories.
func ValidName(name string) bool {
	if !nameRE.MatchString(name) {
		return false
	}
	// Reserved: shard directories live inside a tenant root, and a
	// root-level "shard-*" directory marks a pre-tenant data dir, which the
	// store refuses at open; a tenant root of that name would look like one.
	if len(name) >= 6 && name[:6] == "shard-" {
		return false
	}
	return name != "." && name != ".."
}

// Authentication errors, mapped by the serve layer to 404/401/403.
var (
	ErrUnknownTenant = errors.New("unknown tenant")
	ErrNoToken       = errors.New("authentication required")
	ErrBadToken      = errors.New("token not valid for tenant")
)

// Quotas are per-tenant admission limits. Zero means unlimited.
type Quotas struct {
	// MaxJobs bounds concurrently active runs (running or queued for a run
	// slot). Terminal jobs do not count.
	MaxJobs int `json:"maxJobs,omitempty"`
	// MaxNodes bounds the total graph nodes (|V1|+|V2| summed over live
	// jobs) a tenant may keep resident. Released when a job is deleted.
	MaxNodes int64 `json:"maxNodes,omitempty"`
	// MaxCheckpointBytes bounds the tenant's durable footprint — graphs,
	// checkpoint chains and metas under its data-dir root. Checked at job
	// admission against the store's accounting; a job already admitted is
	// never refused a checkpoint (durability beats quotas mid-run).
	MaxCheckpointBytes int64 `json:"maxCheckpointBytes,omitempty"`
}

// Config declares or updates one tenant.
type Config struct {
	Name string `json:"name"`
	// Token is the bearer token for the tenant's API namespace. Empty
	// means open: requests need no Authorization header.
	Token string `json:"token,omitempty"`
	// TokenEnv names an environment variable to read the token from at
	// load time, keeping secrets out of the config file. Mutually
	// exclusive with Token.
	TokenEnv string `json:"tokenEnv,omitempty"`
	// Weight is the tenant's fair-share weight (default 1). A tenant with
	// weight 2 is entitled to twice the run slots of a weight-1 tenant
	// when both have queued work.
	Weight int `json:"weight,omitempty"`
	Quotas
}

// QuotaError is an admission refusal; the serve layer renders it as 429.
type QuotaError struct {
	Tenant   string
	Resource string // "jobs" | "nodes" | "checkpointBytes"
	Used     int64
	Limit    int64
}

func (e *QuotaError) Error() string {
	return fmt.Sprintf("tenant %s over %s quota (%d of %d in use)", e.Tenant, e.Resource, e.Used, e.Limit)
}

// Tenant is one registered tenant: identity, auth, quotas, and live usage
// counters. All fields are guarded by mu; the name is immutable.
type Tenant struct {
	name string

	mu     sync.Mutex
	token  string
	weight int
	quotas Quotas

	activeJobs int   // runs admitted and not yet finished
	nodes      int64 // graph nodes held by live jobs
}

// Name returns the tenant's immutable name.
func (t *Tenant) Name() string { return t.name }

// Weight returns the tenant's fair-share weight (always >= 1).
func (t *Tenant) Weight() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.weight
}

// Quotas returns the tenant's current limits.
func (t *Tenant) Quotas() Quotas {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.quotas
}

// Open reports whether the tenant accepts unauthenticated requests.
func (t *Tenant) Open() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.token == ""
}

// Usage returns the tenant's live counters: active runs and resident nodes.
func (t *Tenant) Usage() (activeJobs int, nodes int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.activeJobs, t.nodes
}

// AcquireJob admits one run against MaxJobs, or returns a *QuotaError.
// Every successful call must be paired with ReleaseJob when the run ends.
func (t *Tenant) AcquireJob() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if max := t.quotas.MaxJobs; max > 0 && t.activeJobs >= max {
		return &QuotaError{Tenant: t.name, Resource: "jobs", Used: int64(t.activeJobs), Limit: int64(max)}
	}
	t.activeJobs++
	return nil
}

// ReleaseJob returns a run slot admitted by AcquireJob.
func (t *Tenant) ReleaseJob() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.activeJobs > 0 {
		t.activeJobs--
	}
}

// ReserveNodes admits n graph nodes against MaxNodes, or returns a
// *QuotaError. Paired with ReleaseNodes when the job is deleted.
func (t *Tenant) ReserveNodes(n int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if max := t.quotas.MaxNodes; max > 0 && t.nodes+n > max {
		return &QuotaError{Tenant: t.name, Resource: "nodes", Used: t.nodes, Limit: max}
	}
	t.nodes += n
	return nil
}

// AddNodes records n nodes without a quota check — used at boot when jobs
// already on disk are restored: data that exists is accounted, not refused.
func (t *Tenant) AddNodes(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nodes += n
}

// ReleaseNodes returns nodes reserved by ReserveNodes or AddNodes.
func (t *Tenant) ReleaseNodes(n int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.nodes -= n; t.nodes < 0 {
		t.nodes = 0
	}
}

// CheckBytes verifies the tenant's durable footprint (as accounted by the
// store) is under MaxCheckpointBytes, or returns a *QuotaError. Admission
// check only: used counts bytes already on disk, so a tenant at its limit
// cannot admit new jobs until it deletes old ones.
func (t *Tenant) CheckBytes(used int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if max := t.quotas.MaxCheckpointBytes; max > 0 && used >= max {
		return &QuotaError{Tenant: t.name, Resource: "checkpointBytes", Used: used, Limit: max}
	}
	return nil
}

// Registry is the tenant table. It always contains the Default tenant.
type Registry struct {
	mu      sync.Mutex
	tenants map[string]*Tenant
}

// NewRegistry builds a registry holding only the open, unlimited Default
// tenant — the configuration every pre-tenancy deployment ran with.
func NewRegistry() *Registry {
	r := &Registry{tenants: make(map[string]*Tenant)}
	r.tenants[Default] = &Tenant{name: Default, weight: 1}
	return r
}

// Register upserts a tenant from its config. Registering an existing name
// (including Default) updates its token, weight and quotas in place,
// preserving live usage counters.
func (r *Registry) Register(c Config) (*Tenant, error) {
	if !ValidName(c.Name) {
		return nil, fmt.Errorf("tenant: invalid name %q (want a lowercase slug, not starting with shard-)", c.Name)
	}
	token := c.Token
	if c.TokenEnv != "" {
		if token != "" {
			return nil, fmt.Errorf("tenant %s: token and tokenEnv are mutually exclusive", c.Name)
		}
		token = os.Getenv(c.TokenEnv)
		if token == "" {
			return nil, fmt.Errorf("tenant %s: environment variable %s is empty or unset", c.Name, c.TokenEnv)
		}
	}
	weight := c.Weight
	if weight < 0 {
		return nil, fmt.Errorf("tenant %s: negative weight %d", c.Name, weight)
	}
	if weight == 0 {
		weight = 1
	}
	if c.MaxJobs < 0 || c.MaxNodes < 0 || c.MaxCheckpointBytes < 0 {
		return nil, fmt.Errorf("tenant %s: negative quota", c.Name)
	}
	r.mu.Lock()
	t := r.tenants[c.Name]
	if t == nil {
		// Publish fully initialized: a concurrent Authenticate must never
		// observe a token-protected tenant in a half-built open state.
		t = &Tenant{name: c.Name, token: token, weight: weight, quotas: c.Quotas}
		r.tenants[c.Name] = t
		r.mu.Unlock()
		return t, nil
	}
	r.mu.Unlock()
	t.mu.Lock()
	t.token = token
	t.weight = weight
	t.quotas = c.Quotas
	t.mu.Unlock()
	return t, nil
}

// Get returns the named tenant, or nil.
func (r *Registry) Get(name string) *Tenant {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenants[name]
}

// All returns every tenant sorted by name.
func (r *Registry) All() []*Tenant {
	r.mu.Lock()
	out := make([]*Tenant, 0, len(r.tenants))
	for _, t := range r.tenants {
		out = append(out, t)
	}
	r.mu.Unlock()
	sort.Slice(out, func(a, b int) bool { return out[a].name < out[b].name })
	return out
}

// Authenticate resolves a tenant name plus a bearer token to the tenant.
// An open tenant (no token configured) accepts any request; a protected
// one requires its exact token — ErrNoToken when the request carries none
// (401), ErrBadToken on a mismatch (403), ErrUnknownTenant when the name
// does not resolve (404).
func (r *Registry) Authenticate(name, bearer string) (*Tenant, error) {
	t := r.Get(name)
	if t == nil {
		return nil, ErrUnknownTenant
	}
	t.mu.Lock()
	token := t.token
	t.mu.Unlock()
	if token == "" {
		return t, nil
	}
	if bearer == "" {
		return nil, ErrNoToken
	}
	if subtle.ConstantTimeCompare([]byte(token), []byte(bearer)) != 1 {
		return nil, ErrBadToken
	}
	return t, nil
}

// configFile is the -tenants file shape: {"tenants": [Config, ...]}.
type configFile struct {
	Tenants []Config `json:"tenants"`
}

// LoadFile registers every tenant declared in a JSON config file,
// resolving tokenEnv references against the current environment. The file
// may (re)configure the Default tenant; any error aborts the whole load so
// a half-applied tenant set never serves traffic.
func (r *Registry) LoadFile(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("tenant: %w", err)
	}
	var f configFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&f); err != nil {
		return fmt.Errorf("tenant: parsing %s: %w", path, err)
	}
	seen := make(map[string]bool, len(f.Tenants))
	for _, c := range f.Tenants {
		if seen[c.Name] {
			return fmt.Errorf("tenant: %s declared twice in %s", c.Name, path)
		}
		seen[c.Name] = true
		if _, err := r.Register(c); err != nil {
			return fmt.Errorf("tenant: %s: %w", path, err)
		}
	}
	return nil
}
