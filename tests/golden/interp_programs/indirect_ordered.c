/* Struct-array fields indexed by shared loads and calls. */
struct rec { int v; int w[4]; double d; };
struct rec recs[8];
int idx[4];
lock_t lk;
int pick(int i) { return idx[i % 4]; }
void worker(int pid)
{
    int i; int j;
    for (i = 0; i < 6; i++) {
        j = i % 4;
        recs[pid].w[idx[j]] = recs[pid].w[idx[j]] + i;
        recs[pid].w[pick(i)] += 1;
        recs[(pid + 1) % nprocs()].v = recs[pid].v + j;
        recs[pid].d = recs[pid].d + 0.5;
        lock(&lk);
        recs[0].w[idx[(i + pid) % 4]] += pid;
        unlock(&lk);
    }
    barrier();
    recs[pid].v += recs[(pid + 1) % nprocs()].w[2];
}
int main()
{
    int p; int s;
    for (p = 0; p < 4; p++) { idx[p] = (p * 3) % 4; }
    for (p = 0; p < 8; p++) { recs[p].v = p; recs[p].w[1] = p * 2; }
    for (p = 0; p < nprocs(); p++) { create(worker, p); }
    wait_for_end();
    s = 0;
    for (p = 0; p < 8; p++) { s = s + recs[p].v + recs[p].w[0] + recs[p].w[1] + recs[p].w[2] + recs[p].w[3]; }
    print(s, recs[1].d);
    return s;
}
