package serve

// Stable machine-readable error codes, one per distinct failure the API can
// render in its error envelope. Codes are part of the API contract: clients
// switch on them instead of parsing messages, so existing codes must never
// be renamed.
const (
	codeInvalidJSON      = "invalid_json"       // body is not valid JSON
	codeTrailingData     = "trailing_data"      // bytes after the JSON/bundle body
	codeBodyTooLarge     = "body_too_large"     // body exceeds MaxBody
	codeEmptyBatch       = "empty_batch"        // no windows in request
	codeBatchTooLarge    = "batch_too_large"    // more windows than MaxBatch/queue capacity
	codeBadWindow        = "bad_window"         // window shape the encoder rejects
	codeInvalidTargets   = "invalid_targets"    // adapt batch the model rejects
	codeNotTrained       = "not_trained"        // model has no trained source domains
	codeUnknownStrategy  = "unknown_strategy"   // unregistered adaptation-strategy spec
	codeInvalidConfig    = "invalid_config"     // bundle carries an invalid model config
	codeInvalidBundle    = "invalid_bundle"     // undecodable/untrained bundle payload
	codeQueueFull        = "queue_full"         // transient streaming backpressure
	codeDraining         = "draining"           // shutdown in progress
	codeInvalidModelName = "invalid_model_name" // malformed registry name
	codeModelNotFound    = "model_not_found"    // unknown registry name
	codeRegistryFull     = "registry_full"      // MaxModels reached, nothing evictable
	codeDefaultPinned    = "default_pinned"     // DELETE on the pinned default model
	codeNoCheckpoint     = "no_checkpoint"      // rollback with no drift checkpoint to restore
	codeOverloaded       = "overloaded"         // in-flight admission cap reached
	codeDeadlineExceeded = "deadline_exceeded"  // per-request deadline expired mid-handler
	codeAdapterOpen      = "adapter_open"       // stream-fold circuit breaker is open
	codeCheckpointFailed = "checkpoint_failed"  // durable checkpoint could not be persisted
	codeNoStateDir       = "no_state_dir"       // checkpoint requested without a -state-dir
	codeInternal         = "internal"           // unclassified server fault
)

// ErrorCodes is the complete registry of envelope error codes. The
// errenvelope analyzer (internal/lint/errenvelope) loads this table via
// go/types and rejects any httpError carrying — or any codeXxx const
// defining — a code that is not listed here, so adding a code means adding
// it in both places or the lint suite fails. Exported for API clients and tests that want to
// validate against the full set.
var ErrorCodes = []string{
	codeInvalidJSON,
	codeTrailingData,
	codeBodyTooLarge,
	codeEmptyBatch,
	codeBatchTooLarge,
	codeBadWindow,
	codeInvalidTargets,
	codeNotTrained,
	codeUnknownStrategy,
	codeInvalidConfig,
	codeInvalidBundle,
	codeQueueFull,
	codeDraining,
	codeInvalidModelName,
	codeModelNotFound,
	codeRegistryFull,
	codeDefaultPinned,
	codeNoCheckpoint,
	codeOverloaded,
	codeDeadlineExceeded,
	codeAdapterOpen,
	codeCheckpointFailed,
	codeNoStateDir,
	codeInternal,
}
