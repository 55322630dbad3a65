package engine

import (
	"context"
	"net/http"
	"strings"
)

// tenantCtxKey carries the resolved tenant name through a request
// context (see RequestTenant).
type tenantCtxKey struct{}

// RequestTenant returns the tenant TenantAuth resolved for this
// request: the authenticated tenant when bearer auth is configured,
// otherwise the X-Pdfd-Tenant header's (a cluster coordinator fronting
// the engine forwards the tenant it authenticated there). Empty means
// the request named no tenant — the job Spec's own tenant field, or
// the anonymous default, applies.
func RequestTenant(ctx context.Context) string {
	t, _ := ctx.Value(tenantCtxKey{}).(string)
	return t
}

// TenantAuth resolves HTTP requests to tenants. Construct with
// NewTenantAuth; the engine server and the cluster coordinator both
// wrap their /v1 routes with it.
type TenantAuth struct {
	keys     map[string]string // bearer key → tenant name
	required bool
}

// NewTenantAuth builds the resolver for a tenant roster. Auth is
// required iff any tenant declares a Key: then every wrapped route
// demands a valid Authorization: Bearer credential and answers 401
// (code "unauthorized") without one. A roster without keys — e.g.
// cluster backends that trust the coordinator's X-Pdfd-Tenant header —
// resolves tenants without demanding credentials.
func NewTenantAuth(tenants []TenantConfig) *TenantAuth {
	a := &TenantAuth{keys: make(map[string]string)}
	for _, t := range tenants {
		if t.Key != "" {
			a.keys[t.Key] = t.Name
			a.required = true
		}
	}
	return a
}

// Resolve maps a request to its tenant, reporting ok=false when auth
// is required and the credential is missing or unknown.
func (a *TenantAuth) Resolve(r *http.Request) (tenant string, ok bool) {
	if h := r.Header.Get("Authorization"); h != "" {
		if key, isBearer := strings.CutPrefix(h, "Bearer "); isBearer {
			if name, known := a.keys[strings.TrimSpace(key)]; known {
				return name, true
			}
		}
		if a.required {
			return "", false
		}
	}
	if a.required {
		return "", false
	}
	// Unauthenticated deployment: trust the forwarded tenant header.
	if t := r.Header.Get(TenantHeader); t != "" && ValidTenantName(t) {
		return t, true
	}
	return "", true
}

// Wrap guards a handler with tenant resolution: a failed resolve
// answers 401 in the unified error envelope; success stores the
// tenant in the request context for RequestTenant.
func (a *TenantAuth) Wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tenant, ok := a.Resolve(r)
		if !ok {
			w.Header().Set("WWW-Authenticate", `Bearer realm="pdfd"`)
			WriteError(w, http.StatusUnauthorized, CodeUnauthorized,
				"missing or unknown bearer credential", 0)
			return
		}
		if tenant != "" {
			r = r.WithContext(context.WithValue(r.Context(), tenantCtxKey{}, tenant))
		}
		next.ServeHTTP(w, r)
	})
}
