/*
 * The FCAT kernel's batch loop, in C.
 *
 * A port of the Python session in repro/kernels/fcat.py
 * (`_FcatKernelSession`: `_run_frame`, `_walk_frame`, `_replay`,
 * `_apply_removals`, the termination probe and the estimator update),
 * which stays the reference: the two consume each session's generator
 * identically and give bit-identical results on every channel.  One call,
 * `fcat_run`, runs a whole batch in frame lockstep, so the caller releases
 * the GIL once per batch.
 *
 * The generator is the session's numpy bit generator, reached through its
 * `bitgen_t`.  Slot counts come from `fcat_binomial_fill`, which draws
 * what `Generator.binomial(n, p, size=len)` draws: numpy's inversion
 * sampler for n * p <= 30, its recurrence tabulated once per call since
 * (n, p) is fixed for the whole frame, and numpy's own `random_binomial`
 * (linked from libnpyrandom.a) above that.  The uniform block comes from
 * `random_standard_uniform_fill` (what `Generator.random` calls), so both
 * draw exactly what the Python walk's numpy calls draw.  The estimator is
 * `EmbeddedEstimator.update` as every session runs it, Eq. 12 in mode
 * "ewma": the same `log` calls in the same operation order, built with
 * -ffp-contract=off so that no product and sum fuse into an FMA.
 *
 * The duplicate repair is `resample_duplicate_slots` (frame.py), draw for
 * draw: its `rng.integers` calls are numpy's Lemire draws from the same
 * library, `random_bounded_uint64_fill` for a sparse segment's retry
 * rounds and `random_bounded_uint64` per element for a dense segment's
 * array-`low` Fisher-Yates swaps.  Nothing in a batch calls back into
 * Python.
 *
 * Errors are sticky and end the batch: a failed allocation sets status
 * FCAT_NOMEM, the runaway guard FCAT_RUNAWAY and a log(1 - p) of zero
 * FCAT_ZERO_DIVISION (the Python estimator's ZeroDivisionError).  A walk
 * that has lost its uniforms runs on to the end of the frame on 0.0
 * draws, which keep every index in range; the caller discards the
 * session.
 *
 * Limits.  Tags, records, pending-list nodes and a frame's transmission
 * positions are i32 indices.  `fcat_new` refuses a session of more than
 * INT32_MAX tags, and a session whose records or nodes, or a frame whose
 * transmissions, would pass INT32_MAX sets FCAT_NOMEM instead of
 * wrapping.
 *
 * Layout.  The roster is `items` (active tag indices) with `where[tag]`
 * each one's position.  The cascade is a peeling decoder, so a record is
 * two i32s: the count of its participants the cascade has not visited
 * yet and the XOR of their tags.  When the count reaches one, the XOR is
 * the last participant: the survivor, or a duplicate residual if it is
 * already learned.  This is the Python store's "first unlearned
 * participant": every visited participant is learned, so only the
 * unvisited one can be unlearned.  Each participant holds the record in
 * its pending list of {record, next} nodes; `head[tag]` is the list's
 * first node, 0 for an empty list and LEARNED once the tag is learned,
 * so a calloc'd array starts every tag unknown with no records.  Nodes
 * are prepended, and a list is reversed into append order when it is
 * detached.  The cascade walks detached lists from a LIFO stack of
 * {tag, node} pairs.  Per-rank stamps {seen, cancelled, last_pos},
 * bumped once per frame, stand in for the Python walk's frame set,
 * cancel set and last-event map.  Scratch arrays grow with use.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#include "numpy/random/distributions.h"

typedef int64_t i64;
typedef int32_t i32;

/* Batch status codes (fcat.py names them). */
enum {
    FCAT_OK = 0,
    FCAT_NOMEM = -2,
    FCAT_RUNAWAY = -3,
    FCAT_ZERO_DIVISION = -4
};

/* The counters Python reads back, by index (fcat.py names them). */
enum {
    ST_EMPTY,           /* this frame's empty slots */
    ST_COLLISION,       /* this frame's collision slots */
    ST_ACTIVE,          /* roster size */
    ST_LEARNED,         /* tags learned so far */
    ST_TRANSMISSIONS,   /* session totals from here on */
    ST_EMPTY_SLOTS,
    ST_SINGLETON_SLOTS,
    ST_COLLISION_SLOTS,
    ST_READ,
    ST_RESOLVED,
    ST_FRAMES,
    ST_ADVERTISEMENTS,
    ST_SLOT_INDEX,
    ST_ESTIMATES,       /* length of the estimate trace */
    /* What the walk did, for attribution only (not in ReadingResult). */
    ST_REPAIRED_FRAMES, /* frames whose ranks the repair changed */
    ST_RETRY_ROUNDS,    /* sparse segments' redraw rounds */
    ST_DENSE_SHUFFLES,  /* dense segments replaced by a shuffle */
    ST_RECORDS,         /* records stored */
    ST_CASCADE_VISITS,  /* pending-list nodes the cascade visited */
    ST_BINOMIAL_SETUPS, /* frames whose binomial (n, p) differed from the
                           last frame's */
    N_STATS
};

/* What a session is configured with (fcat.py's `native.Config`). */
typedef struct {
    i64 n_tags, lam, frame_size, max_slots;
    double omega, max_p;
    /* The estimator: its start, source "empty" (else "collision") and
     * EWMA weight. */
    double initial_guess;
    i32 source_empty;
    double ewma_weight;
    /* The channel's outcome probabilities, and whether all are zero. */
    double crc_p, ack_p, unusable_p, capture_p;
    i32 draw_free;
} Config;

/* One telemetry row: a frame, or a probe when `actual` is -1 (then
 * `index` is the probe's slot and `empty` its outcome: 0 empty,
 * 1 singleton, 2 collision). */
typedef struct {
    i64 index;
    double p;
    i64 empty, singleton, collision;
    double estimate;
    i64 actual;
} Row;

typedef struct {
    Row *data;
    i64 len, cap;
} Rows;

#define BLOCK 4096  /* RankSource._BLOCK */

/* A record: its participants the cascade has not visited, their count
 * (0 once spent) and the XOR of their tags. */
typedef struct {
    i32 count, xor;
} Record;

/* A pending-list node; `next` 0 ends the list (node 0 is unused). */
typedef struct {
    i32 rec, next;
} Node;

/* A detached pending list waiting for the cascade, and whose it is. */
typedef struct {
    i32 tag, node;
} Pending;

/* One rank's frame stamps: transmits this frame, cancelled this frame,
 * and its last transmission's position. */
typedef struct {
    i32 seen, cancelled, last_pos;
} Stamps;

/* `head[tag]` of a learned tag. */
#define LEARNED (-1)

typedef struct {
    i64 stats[N_STATS];
    int status;
    Config c;
    bitgen_t *bitgen;
    /* The last frame's binomial (n, p), for ST_BINOMIAL_SETUPS. */
    i64 last_n;
    double last_p;
    /* The estimator's running estimate, and whether it has a sample. */
    double remaining;
    int has_samples;
    double *trace;
    i64 trace_cap;
    /* The uniform block and the read position. */
    double *block;
    i64 block_cap, pos, len;
    /* This frame's slot counts. */
    i64 *counts;
    /* Roster, and each tag's pending list or LEARNED. */
    i32 *items, *where, *head;
    /* Records and pending-list nodes. */
    Record *records;
    i64 n_records, records_cap;
    Node *nodes;
    i64 n_nodes, nodes_cap;
    /* Per-rank frame stamps. */
    i32 stamp;
    Stamps *stamps;
    /* Scratch. */
    i32 *ranks;
    i64 ranks_cap;
    i64 *record_counts;
    i64 record_counts_cap;
    i32 *segment;
    i64 segment_cap;
    /* The repair's retry positions, redraws and shuffle pool. */
    i32 *retry;
    uint64_t *draws;
    i32 *pool;
    i64 retry_cap, draws_cap, pool_cap;
    i32 *parts;
    i32 *removed;
    i64 n_removed, removed_cap;
    Pending *stack;
    i64 stack_len, stack_cap;
} Session;

/* Make room for `need` items of `size` bytes; 0, or -2 out of memory. */
static int grow(void **array, i64 *cap, i64 need, size_t size)
{
    if (need <= *cap)
        return 0;
    i64 cap2 = *cap ? *cap : 64;
    while (cap2 < need)
        cap2 *= 2;
    void *grown = realloc(*array, (size_t)cap2 * size);
    if (grown == NULL)
        return FCAT_NOMEM;
    *array = grown;
    *cap = cap2;
    return 0;
}

/* grow() for an array an i32 indexes: past INT32_MAX items is out of
 * memory. */
static int grow32(void **array, i64 *cap, i64 need, size_t size)
{
    return need > INT32_MAX ? FCAT_NOMEM : grow(array, cap, need, size);
}

void fcat_free(Session *s)
{
    if (s == NULL)
        return;
    free(s->trace);
    free(s->block);
    free(s->counts);
    free(s->items);
    free(s->where);
    free(s->head);
    free(s->records);
    free(s->nodes);
    free(s->stamps);
    free(s->ranks);
    free(s->record_counts);
    free(s->segment);
    free(s->retry);
    free(s->draws);
    free(s->pool);
    free(s->parts);
    free(s->removed);
    free(s->stack);
    free(s);
}

Session *fcat_new(const Config *c, bitgen_t *bitgen)
{
    i64 n_tags = c->n_tags;
    if (n_tags > INT32_MAX)
        return NULL;
    Session *s = calloc(1, sizeof(Session));
    if (s == NULL)
        return NULL;
    size_t n = (size_t)(n_tags > 0 ? n_tags : 1);
    s->c = *c;
    s->bitgen = bitgen;
    s->remaining = c->initial_guess;
    s->counts = malloc((size_t)c->frame_size * sizeof(i64));
    s->items = malloc(n * sizeof(i32));
    s->where = malloc(n * sizeof(i32));
    s->head = calloc(n, sizeof(i32));
    s->stamps = calloc(n, sizeof(Stamps));
    /* A record's participants beside a read: at most lam. */
    s->parts = malloc((size_t)(c->lam > 0 ? c->lam : 1) * sizeof(i32));
    s->n_nodes = 1;
    if (!s->counts || !s->items || !s->where || !s->head || !s->stamps
        || !s->parts) {
        fcat_free(s);
        return NULL;
    }
    for (i32 tag = 0; tag < n_tags; tag++) {
        s->items[tag] = tag;
        s->where[tag] = tag;
    }
    s->stats[ST_ACTIVE] = n_tags;
    return s;
}

i64 *fcat_stats(Session *s)
{
    return s->stats;
}

/* The per-frame estimates, `stats[ST_ESTIMATES]` of them. */
double *fcat_trace(Session *s)
{
    return s->trace;
}

/* Make `need` uniforms readable from s->pos: RankSource's refill rule (a
 * fresh block of max(BLOCK, need), the leftovers discarded). */
static int reserve(Session *s, i64 need)
{
    if (s->pos + need > s->len) {
        i64 len = need > BLOCK ? need : BLOCK;
        if (s->status
            || grow((void **)&s->block, &s->block_cap, len, sizeof(double))) {
            if (!s->status)
                s->status = FCAT_NOMEM;
            return s->status;
        }
        random_standard_uniform_fill(s->bitgen, len, s->block);
        s->len = len;
        s->pos = 0;
    }
    return 0;
}

/* One channel-outcome uniform (0.0 once the block is lost). */
static inline double uniform(Session *s)
{
    if (s->pos == s->len && reserve(s, 1))
        return 0.0;
    return s->block[s->pos++];
}

/* Store a record over `k` unknown tags, prepended to each one's pending
 * list. */
static void store_record(Session *s, const i32 *tags, i64 k)
{
    if (grow32((void **)&s->records, &s->records_cap, s->n_records + 1,
               sizeof(Record))
        || grow32((void **)&s->nodes, &s->nodes_cap, s->n_nodes + k,
                  sizeof(Node))) {
        s->status = FCAT_NOMEM;
        return;
    }
    i32 rec = (i32)s->n_records++;
    i32 xor = 0;
    Node *node = s->nodes + s->n_nodes;
    i32 *head = s->head;
    for (i64 j = 0; j < k; j++) {
        i32 tag = tags[j];
        xor ^= tag;
        node[j] = (Node){rec, head[tag]};
        head[tag] = (i32)(s->n_nodes + j);
    }
    s->n_nodes += k;
    s->records[rec] = (Record){(i32)k, xor};
    s->stats[ST_RECORDS]++;
}

/* Learn `tag` and detach its pending list: returns the list's first node
 * in append order (the list is reversed), or 0. */
static inline i32 detach(Session *s, i32 tag)
{
    Node *nodes = s->nodes;
    i32 node = s->head[tag], prev = 0;
    s->head[tag] = LEARNED;
    while (node > 0) {
        i32 next = nodes[node].next;
        nodes[node].next = prev;
        prev = node;
        node = next;
    }
    return prev;
}

/* Add a tag to the frame's acked tags, removed from the roster at its
 * end. */
static inline void push_removed(Session *s, i32 tag)
{
    if (s->n_removed == s->removed_cap
        && grow((void **)&s->removed, &s->removed_cap, s->n_removed + 1,
                sizeof(i32))) {
        s->status = FCAT_NOMEM;
        return;
    }
    s->removed[s->n_removed++] = tag;
}

/* The state one frame's walk threads through its helpers. */
typedef struct {
    i64 end;         /* end of the current slot's rank segment */
    int has_dups;    /* some rank repeats: last_pos is meaningful */
    int cancel_any;  /* some rank's later transmissions are cancelled */
    i64 n_resolved;
} Walk;

/* Cancel `rank`'s transmissions after the current slot, if it has any. */
static inline void cancel_later(Session *s, Walk *w, i32 rank)
{
    Stamps *st = s->stamps + rank;
    if (st->seen == s->stamp && (!w->has_dups || st->last_pos >= w->end)) {
        st->cancelled = s->stamp;
        w->cancel_any = 1;
    }
}

/* Learn `tag` through a record: ack, removal, cancellation, and its
 * pending list onto the cascade's stack. */
static void resolve(Session *s, Walk *w, i32 tag)
{
    w->n_resolved++;
    if (s->c.ack_p == 0.0 || uniform(s) >= s->c.ack_p) {
        push_removed(s, tag);
        cancel_later(s, w, s->where[tag]);
    }
    i32 pending = detach(s, tag);
    if (pending == 0)
        return;
    if (grow((void **)&s->stack, &s->stack_cap, s->stack_len + 1,
             sizeof(Pending))) {
        s->status = FCAT_NOMEM;
        return;
    }
    s->stack[s->stack_len++] = (Pending){tag, pending};
}

/* The resolution cascade from `tag`'s detached pending list: a worklist
 * fixpoint, O(record visits). */
static void cascade(Session *s, Walk *w, i32 tag, i32 node)
{
    const Node *nodes = s->nodes;
    Record *records = s->records;
    i64 visits = 0;
    for (;;) {
        for (; node > 0; node = nodes[node].next) {
            visits++;
            Record *rec = records + nodes[node].rec;
            i32 c = rec->count;
            if (c < 2)
                continue;  /* spent */
            rec->count = c - 1;
            rec->xor ^= tag;
            if (c > 2)
                continue;  /* still more than one unknown participant */
            rec->count = 0;
            if (s->head[rec->xor] != LEARNED)  /* else a duplicate residual */
                resolve(s, w, rec->xor);
        }
        if (s->stack_len == 0)
            break;
        Pending next = s->stack[--s->stack_len];
        tag = next.tag;
        node = next.node;
    }
    s->stats[ST_CASCADE_VISITS] += visits;
}

/* Stamp the frame's ranks; returns whether some rank repeats. */
static int stamp_ranks(Session *s, i64 total)
{
    i32 stamp = ++s->stamp;
    Stamps *stamps = s->stamps;
    int has_dups = 0;
    for (i32 i = 0; i < total; i++) {
        Stamps *st = stamps + s->ranks[i];
        if (st->seen == stamp)
            has_dups = 1;
        st->seen = stamp;
        st->last_pos = i;
    }
    return has_dups;
}

/* Whether the segment ranks[offset, offset + k) repeats a rank. */
static int segment_dups(Session *s, i64 offset, i64 k)
{
    i32 stamp = ++s->stamp;
    for (i64 j = offset; j < offset + k; j++) {
        Stamps *st = s->stamps + s->ranks[j];
        if (st->seen == stamp)
            return 1;
        st->seen = stamp;
    }
    return 0;
}

/* A sparse segment: redraw its later duplicate occurrences, round after
 * round, until it is distinct (`rng.integers(0, n, size=len(retry))`). */
static int retry_segment(Session *s, i64 offset, i64 k, i64 n_active)
{
    if (grow((void **)&s->retry, &s->retry_cap, k, sizeof(i32))
        || grow((void **)&s->draws, &s->draws_cap, k, sizeof(uint64_t)))
        return s->status = FCAT_NOMEM;
    i32 stamp = ++s->stamp;
    Stamps *stamps = s->stamps;
    i64 n_retry = 0;
    for (i32 j = (i32)offset; j < offset + k; j++) {
        if (stamps[s->ranks[j]].seen == stamp)
            s->retry[n_retry++] = j;
        else
            stamps[s->ranks[j]].seen = stamp;
    }
    while (n_retry) {
        s->stats[ST_RETRY_ROUNDS]++;
        random_bounded_uint64_fill(s->bitgen, 0, (uint64_t)(n_active - 1),
                                   n_retry, false, s->draws);
        i64 still = 0;
        for (i64 j = 0; j < n_retry; j++) {
            i32 rank = (i32)s->draws[j];
            if (stamps[rank].seen == stamp) {
                s->retry[still++] = s->retry[j];
            } else {
                stamps[rank].seen = stamp;
                s->ranks[s->retry[j]] = rank;
            }
        }
        n_retry = still;
    }
    return 0;
}

/* A dense segment (2k >= n): a partial Fisher-Yates draw over the whole
 * roster, its swap j from [j, n) (`rng.integers(np.arange(k), n)`). */
static int shuffle_segment(Session *s, i64 offset, i64 k, i64 n_active)
{
    if (grow((void **)&s->pool, &s->pool_cap, n_active, sizeof(i32)))
        return s->status = FCAT_NOMEM;
    s->stats[ST_DENSE_SHUFFLES]++;
    i32 *pool = s->pool;
    for (i32 j = 0; j < n_active; j++)
        pool[j] = j;
    for (i64 j = 0; j < k; j++) {
        i64 swap = (i64)random_bounded_uint64(
            s->bitgen, (uint64_t)j, (uint64_t)(n_active - 1 - j), 0, false);
        i32 drawn = pool[swap];
        pool[swap] = pool[j];
        pool[j] = drawn;
        s->ranks[offset + j] = drawn;
    }
    return 0;
}

/* Redraw within-slot duplicate ranks, segment by segment in slot order:
 * `resample_duplicate_slots`, which draws nothing for a frame without
 * them. */
static int repair_slots(Session *s, const i64 *counts, i64 n_counts)
{
    i64 n_active = s->stats[ST_ACTIVE];
    int changed = 0;
    i64 offset = 0;
    for (i64 i = 0; i < n_counts && !s->status; i++) {
        i64 k = counts[i];
        if (k >= 2 && segment_dups(s, offset, k)) {
            changed = 1;
            if (k * 2 >= n_active)
                shuffle_segment(s, offset, k, n_active);
            else
                retry_segment(s, offset, k, n_active);
        }
        offset += k;
    }
    s->stats[ST_REPAIRED_FRAMES] += changed;
    return s->status;
}

/* `total` ranks over [0, n) from the uniform block: floor(u * n), the
 * integers np.multiply(u, n).astype(np.intp) gives. */
static int draw_ranks(Session *s, i64 n, i64 total)
{
    if (grow32((void **)&s->ranks, &s->ranks_cap, total, sizeof(i32)))
        return s->status = FCAT_NOMEM;
    if (reserve(s, total))
        return s->status;
    const double *u = s->block + s->pos;
    double scale = (double)n;
    for (i64 i = 0; i < total; i++)
        s->ranks[i] = (i32)(u[i] * scale);
    s->pos += total;
    return 0;
}

/* Swap-remove the frame's acked tags from the roster, in ack order. */
static void apply_removals(Session *s)
{
    i64 n_active = s->stats[ST_ACTIVE];
    for (i64 i = 0; i < s->n_removed; i++) {
        i32 tag = s->removed[i];
        i32 position = s->where[tag];
        i32 last = s->items[--n_active];
        s->items[position] = last;
        s->where[last] = position;
    }
    s->n_removed = 0;
    s->stats[ST_ACTIVE] = n_active;
}

/* Walk one frame in slot order: the Python `_replay`. */
static int replay(Session *s, const i64 *counts, i64 n_counts,
                  int has_dups)
{
    const i64 lam = s->c.lam;
    const double crc_p = s->c.crc_p, ack_p = s->c.ack_p;
    const double unusable_p = s->c.unusable_p, capture_p = s->c.capture_p;
    const i32 *ranks = s->ranks;
    i32 *items = s->items, *head = s->head;
    Stamps *stamps = s->stamps;
    i32 *parts = s->parts;
    Walk w = {0, has_dups, 0, 0};
    i64 n_singleton = 0, n_collision = 0, n_reread = 0;
    /* Transmissions beyond the one every singleton-class slot carries. */
    i64 transmissions = 0;
    i64 offset = 0;
    for (i64 i = 0; i < n_counts; i++) {
        i64 k = counts[i];
        if (k == 0)
            continue;
        i64 start = offset;
        offset = w.end = start + k;
        const i32 *seg = ranks + start;
        i32 rank = -1;
        if (k == 1) {
            rank = seg[0];
            if (w.cancel_any && stamps[rank].cancelled == s->stamp)
                continue;
        } else if (w.cancel_any) {
            if (grow((void **)&s->segment, &s->segment_cap, k, sizeof(i32)))
                return s->status = FCAT_NOMEM;
            i64 kept = 0;
            for (i64 j = 0; j < k; j++)
                if (stamps[seg[j]].cancelled != s->stamp)
                    s->segment[kept++] = seg[j];
            k = kept;
            if (k == 0)
                continue;
            seg = s->segment;
            if (k == 1)
                rank = seg[0];
        }
        i64 n_parts = 0;  /* participants of a record beside the read */
        if (k == 1) {
            if (crc_p != 0.0 && uniform(s) < crc_p) {
                /* CRC failure: an opaque record, counted a collision. */
                transmissions += 1;
                n_collision += 1;
                continue;
            }
        } else if (capture_p != 0.0 && uniform(s) < capture_p) {
            /* Capture: the strongest collider decodes, and the others
             * leave a (k-1)-record. */
            i64 captured = (i64)(uniform(s) * (double)k);
            rank = seg[captured];
            transmissions += k - 1;
            if (k - 1 <= lam
                && (unusable_p == 0.0 || uniform(s) >= unusable_p)) {
                for (i64 j = 0; j < k; j++)
                    if (j != captured)
                        parts[n_parts++] = items[seg[j]];
            }
        } else {
            transmissions += k;
            n_collision += 1;
            if (k > lam || (unusable_p != 0.0 && uniform(s) < unusable_p))
                continue;
            for (i64 j = 0; j < k; j++)
                parts[j] = items[seg[j]];
            if (ack_p == 0.0) {
                /* Every ack received: no transmitting tag is learned, so
                 * the record starts fully unknown. */
                store_record(s, parts, k);
                continue;
            }
            n_parts = k;  /* the record path below, without a read */
        }
        i32 tag = -1, entries = 0;
        if (rank >= 0) {
            /* Read: ack, learn, then the cascade. */
            tag = items[rank];
            n_singleton++;
            if (ack_p == 0.0 || uniform(s) >= ack_p) {
                push_removed(s, tag);
                if (has_dups && stamps[rank].last_pos >= w.end) {
                    stamps[rank].cancelled = s->stamp;
                    w.cancel_any = 1;
                }
            }
            if (ack_p != 0.0 && head[tag] == LEARNED)
                n_reread++;
            entries = detach(s, tag);
        }
        /* A record that may hold learned participants: they drop out,
         * and a lone unknown resolves first. */
        i64 n_unknown = 0;
        for (i64 j = 0; j < n_parts; j++)
            if (head[parts[j]] != LEARNED)
                parts[n_unknown++] = parts[j];
        if (n_unknown > 1)
            store_record(s, parts, n_unknown);
        else if (n_unknown == 1)
            resolve(s, &w, parts[0]);
        if (n_unknown == 1 || entries > 0)
            cascade(s, &w, tag, entries);
    }
    i64 n_read = n_singleton - n_reread;
    i64 n_empty = n_counts - n_singleton - n_collision;
    i64 *st = s->stats;
    st[ST_EMPTY] = n_empty;
    st[ST_COLLISION] = n_collision;
    st[ST_LEARNED] += n_read + w.n_resolved;
    st[ST_TRANSMISSIONS] += transmissions + n_singleton;
    st[ST_EMPTY_SLOTS] += n_empty;
    st[ST_SINGLETON_SLOTS] += n_singleton;
    st[ST_COLLISION_SLOTS] += n_collision;
    st[ST_READ] += n_read + w.n_resolved;
    st[ST_RESOLVED] += w.n_resolved;
    apply_removals(s);
    return s->status;
}

/* A silent frame, or one without a singleton on a draw-free channel: no
 * tag can be learned, and only its 2 <= k <= lam slots are observable. */
static int record_frame(Session *s, const i64 *counts, i64 frame_size)
{
    i64 lam = s->c.lam;
    i64 total = 0, record_total = 0, n_records = 0, n_empty = 0;
    if (grow((void **)&s->record_counts, &s->record_counts_cap, frame_size,
             sizeof(i64)))
        return s->status = FCAT_NOMEM;
    for (i64 i = 0; i < frame_size; i++) {
        i64 k = counts[i];
        total += k;
        n_empty += k == 0;
        if (k <= lam)
            record_total += k;
        if (2 <= k && k <= lam)
            s->record_counts[n_records++] = k;
    }
    if (record_total) {
        if (draw_ranks(s, s->stats[ST_ACTIVE], record_total)
            || repair_slots(s, s->record_counts, n_records))
            return s->status;
        i64 offset = 0;
        for (i64 r = 0; r < n_records; r++) {
            i64 k = s->record_counts[r];
            for (i64 j = 0; j < k; j++)
                s->parts[j] = s->items[s->ranks[offset + j]];
            offset += k;
            store_record(s, s->parts, k);
        }
    }
    i64 *st = s->stats;
    st[ST_EMPTY] = n_empty;
    st[ST_COLLISION] = frame_size - n_empty;
    st[ST_TRANSMISSIONS] += total;
    st[ST_EMPTY_SLOTS] += n_empty;
    st[ST_COLLISION_SLOTS] += frame_size - n_empty;
    return s->status;
}

/* Walk one frame of slot counts: the Python `_walk_frame`. */
static int walk_frame(Session *s, const i64 *counts, i64 frame_size,
                      int saturated)
{
    i64 n_active = s->stats[ST_ACTIVE];
    i64 total = 0;
    int singleton = 0;
    for (i64 i = 0; i < frame_size; i++) {
        total += counts[i];
        singleton |= counts[i] == 1;
    }
    if (total == 0 || (s->c.draw_free && !singleton))
        return record_frame(s, counts, frame_size);
    if (saturated) {
        /* Every active tag in every slot. */
        if (grow32((void **)&s->ranks, &s->ranks_cap, total, sizeof(i32)))
            return s->status = FCAT_NOMEM;
        for (i64 i = 0; i < total; i++)
            s->ranks[i] = (i32)(i % n_active);
    } else if (draw_ranks(s, n_active, total)) {
        return s->status;
    }
    int has_dups = stamp_ranks(s, total);
    if (has_dups) {
        if (repair_slots(s, counts, frame_size))
            return s->status;
        has_dups = stamp_ranks(s, total);
    }
    return replay(s, counts, frame_size, has_dups);
}

/* numpy's `random_binomial_inversion` drawn `len` times at one (n, p),
 * p <= 1/2 and n * p <= 30.  Its probability recurrence depends on
 * (n, p) alone, so each term is computed once, when a draw first
 * reaches it, by the same expression in the same order; the draws then
 * subtract and compare exactly the doubles numpy's loop does, restart
 * past the same bound and consume the same uniforms. */
static void binomial_inversion_fill(bitgen_t *bitgen, i64 n, double p,
                                    i64 *out, i64 len)
{
    double q = 1.0 - p;
    double np = n * p;
    i64 bound = (i64)(n < np + 10.0 * sqrt(np * q + 1)
                      ? n : np + 10.0 * sqrt(np * q + 1));
    /* bound <= 30 + 10 * sqrt(31) < 86. */
    double px[96];
    px[0] = exp(n * log1p(-p));
    i64 tabulated = 0;
    for (i64 i = 0; i < len; i++) {
        i64 X = 0;
        double U = next_double(bitgen);
        while (U > px[X]) {
            X++;
            if (X > bound) {
                X = 0;
                U = next_double(bitgen);
            } else {
                U -= px[X - 1];
                if (X > tabulated) {
                    px[X] = ((n - X + 1) * p * px[X - 1]) / (X * q);
                    tabulated = X;
                }
            }
        }
        out[i] = X;
    }
}

/* `Generator.binomial(n, p, size=len)` for 0 <= p <= 1: numpy's
 * `random_binomial` per draw, with its inversion branch tabulated and
 * its p > 1/2 mirror, n - Binomial(n, 1 - p). */
void fcat_binomial_fill(bitgen_t *bitgen, i64 n, double p, i64 *out,
                        i64 len)
{
    if (n == 0 || p == 0.0) {
        memset(out, 0, (size_t)len * sizeof(i64));
        return;
    }
    double drawn_p = p <= 0.5 ? p : 1.0 - p;
    if (drawn_p * n > 30.0) {
        /* The BTPE branch, as numpy runs it. */
        binomial_t binomial = {0};
        for (i64 i = 0; i < len; i++)
            out[i] = random_binomial(bitgen, p, n, &binomial);
        return;
    }
    binomial_inversion_fill(bitgen, n, drawn_p, out, len);
    if (drawn_p != p)
        for (i64 i = 0; i < len; i++)
            out[i] = n - out[i];
}

/* One frame's slot counts: `draw_slot_counts`.  A frame whose (n, p)
 * differs from the last one's is counted as a binomial set-up. */
static void draw_counts(Session *s, i64 n_active, double p)
{
    i64 *counts = s->counts;
    i64 frame_size = s->c.frame_size;
    if (n_active == 0 || p == 0.0 || p >= 1.0) {
        for (i64 i = 0; i < frame_size; i++)
            counts[i] = n_active == 0 || p == 0.0 ? 0 : n_active;
        return;
    }
    if (n_active != s->last_n || p != s->last_p) {
        s->stats[ST_BINOMIAL_SETUPS]++;
        s->last_n = n_active;
        s->last_p = p;
    }
    fcat_binomial_fill(s->bitgen, n_active, p, counts, frame_size);
}

/* Python's max(a, b) on floats: `b` only when it is greater. */
static inline double py_max(double a, double b)
{
    return b > a ? b : a;
}

/* `EmbeddedEstimator.update` for method "paper", mode "ewma".
 * Python's int operands become doubles exactly where Python converts
 * them. */
static void estimate(Session *s, i64 n_c, i64 n_empty, double p,
                     i64 newly_identified)
{
    const Config *c = &s->c;
    double f = (double)c->frame_size;
    int saturated = c->source_empty ? n_empty == 0 : n_c >= c->frame_size;
    if (saturated && !s->has_samples) {
        /* Saturated while still blind: double and re-probe. */
        s->remaining = py_max(s->remaining * 2.0, 2.0);
        return;
    }
    if (p <= 0.0 || p >= 1.0)
        return;  /* degenerate advertisement; nothing to invert */
    double participating, denominator;
    if (c->source_empty) {
        double numerator = log(py_max((double)n_empty, 0.5) / f);
        denominator = log(1.0 - p);
        participating = numerator / denominator;
    } else {
        /* A saturated frame inverts at the half-count boundary. */
        double n_c_eff = saturated ? f - 0.5 : (double)n_c;
        double numerator = log(1.0 - n_c_eff / f) - log(1.0 - p + c->omega);
        denominator = log(1.0 - p);
        participating = numerator / denominator + 1.0;
    }
    if (denominator == 0.0) {
        s->status = FCAT_ZERO_DIVISION;
        return;
    }
    participating = py_max(participating, 0.0);
    s->has_samples = 1;
    double fresh = py_max(participating - (double)newly_identified, 0.0);
    double prior = py_max(s->remaining - (double)newly_identified, 0.0);
    s->remaining = c->ewma_weight * fresh + (1.0 - c->ewma_weight) * prior;
}

/* Open `n_slots` slots behind one advertisement, or trip the guard. */
static int advertise(Session *s, i64 n_slots)
{
    s->stats[ST_ADVERTISEMENTS]++;
    if (s->stats[ST_SLOT_INDEX] >= s->c.max_slots)
        return s->status = FCAT_RUNAWAY;
    s->stats[ST_SLOT_INDEX] += n_slots;
    return 0;
}

static Row *next_row(Session *s, Rows *rows)
{
    if (grow((void **)&rows->data, &rows->cap, rows->len + 1, sizeof(Row))) {
        s->status = FCAT_NOMEM;
        return NULL;
    }
    return rows->data + rows->len++;
}

/* Draw, walk and estimate one frame: `_run_frame`.  Returns its empty
 * slot count. */
static i64 run_frame(Session *s, Rows *rows)
{
    i64 *st = s->stats;
    i64 frame_size = s->c.frame_size;
    i64 learned_at_start = st[ST_LEARNED];
    double remaining = s->remaining;
    if (remaining < 1.0)
        remaining = 1.0;
    double p = s->c.omega / remaining;
    if (p > s->c.max_p)
        p = s->c.max_p;
    st[ST_FRAMES]++;
    if (advertise(s, frame_size))
        return 0;
    draw_counts(s, st[ST_ACTIVE], p);
    if (walk_frame(s, s->counts, frame_size, p >= 1.0))
        return 0;
    i64 n_empty = st[ST_EMPTY], n_collision = st[ST_COLLISION];
    estimate(s, n_collision, n_empty, p, st[ST_LEARNED] - learned_at_start);
    if (s->status)
        return 0;
    if (grow((void **)&s->trace, &s->trace_cap, st[ST_ESTIMATES] + 1,
             sizeof(double))) {
        s->status = FCAT_NOMEM;
        return 0;
    }
    remaining = s->remaining;
    s->trace[st[ST_ESTIMATES]++] = remaining > 1.0 ? remaining : 1.0;
    if (rows != NULL) {
        Row *row = next_row(s, rows);
        if (row == NULL)
            return 0;
        *row = (Row){st[ST_FRAMES] - 1, p, n_empty,
                     frame_size - n_empty - n_collision, n_collision,
                     py_max(remaining, 1.0), st[ST_ACTIVE]};
    }
    return n_empty;
}

/* One p = 1 slot after an all-empty frame: `_termination_probe`.
 * Returns whether the session is done. */
static int probe(Session *s, Rows *rows)
{
    i64 *st = s->stats;
    i64 slot = st[ST_SLOT_INDEX];
    if (advertise(s, 1))
        return 0;
    /* The frame walk over one slot that every active tag transmits in. */
    i64 n_active = st[ST_ACTIVE];
    if (grow((void **)&s->ranks, &s->ranks_cap, n_active, sizeof(i32))) {
        s->status = FCAT_NOMEM;
        return 0;
    }
    for (i32 i = 0; i < n_active; i++)
        s->ranks[i] = i;
    stamp_ranks(s, n_active);
    if (replay(s, &n_active, 1, 0))
        return 0;
    i64 n_empty = st[ST_EMPTY], n_collision = st[ST_COLLISION];
    if (rows != NULL) {
        Row *row = next_row(s, rows);
        if (row == NULL)
            return 0;
        *row = (Row){slot, 0.0, n_empty ? 0 : n_collision ? 2 : 1, 0, 0,
                     0.0, -1};
    }
    if (n_collision)
        s->remaining = py_max(s->remaining, 2.0);
    return n_empty != 0;
}

/* Run `n` sessions in frame lockstep until every one is done: each round
 * advances every live session by one frame (and its probe).  Telemetry
 * rows go to `rows` when it is not NULL.  Stops at the first error and
 * returns its status. */
int fcat_run(Session **sessions, i64 n, Rows *rows)
{
    Session **alive = malloc((size_t)(n > 0 ? n : 1) * sizeof(Session *));
    if (alive == NULL)
        return FCAT_NOMEM;
    memcpy(alive, sessions, (size_t)n * sizeof(Session *));
    int status = FCAT_OK;
    while (n > 0 && status == FCAT_OK) {
        i64 kept = 0;
        for (i64 i = 0; i < n; i++) {
            Session *s = alive[i];
            int done = run_frame(s, rows) == s->c.frame_size
                       && !s->status && probe(s, rows);
            status = s->status;
            if (status)
                break;
            if (!done)
                alive[kept++] = s;
        }
        n = kept;
    }
    free(alive);
    return status;
}

void fcat_rows_free(Rows *rows)
{
    free(rows->data);
    rows->data = NULL;
    rows->len = rows->cap = 0;
}
